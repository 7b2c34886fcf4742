//go:build race

package core

// raceEnabled reports that this test binary was built with -race. The
// differential parity suites skip their whole-pipeline scenarios under the
// race detector: they compare against strictly serial reference
// implementations (Workers: 1 and verbatim seed copies), so the detector
// can find nothing there while multiplying the runtime past the package
// test timeout. Concurrency coverage for the same code lives in the
// dedicated race tests (race_test.go, the worker-pool attack tests),
// which do run under -race.
const raceEnabled = true
