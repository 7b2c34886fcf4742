// Command perfbench is the end-to-end benchmark of the coldbootd analysis
// service. It starts service.Server in-process, configured the way
// cmd/coldbootd configures it with default flags (only the listen address
// and data dir differ), on a loopback listener; in the fleet workload it
// serves as a coordinator with in-process fleet.Workers. A closed-loop HTTP
// client then pushes generated, scrambled and decayed Skylake DDR4 dumps
// through POST /v1/jobs, the job's NDJSON event stream,
// GET /v1/jobs/{id}/result?reveal=keys and DELETE, and checks every result
// against the library reference computed in setup.
//
// Build and run it from the repository root through its wrapper, which
// keeps every build and run artifact under .bench_build/:
//
//	bash perfbench/run.sh --workload bulk-scan --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
// are the end-to-end ones; with --trace 1 they are the per-layer ones,
// measured by timing calls into each module from this package's own files.
// A run stamp and a human-readable table go to standard error. See
// README.md in this directory for the workloads and the layer map.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	// Register every target-format scanner, as cmd/coldbootd does, so the
	// luks2 and chacha20 targets are hunted too.
	_ "coldboot/internal/format/all"
)

// runDeadline bounds one whole run (set-up, measurement, trace phase and
// teardown); the benchmark must exit within three minutes.
const runDeadline = 170 * time.Second

// options are one run's parameters.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	// out is the directory the run's temp data dir and trace file live in.
	out string
	// failAfter, when positive, aborts the run with an error once that
	// many jobs have completed (teardown tests).
	failAfter int
	// onStart, when set, observes each started server's base URL.
	onStart func(base string)
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+workloadNames())
	flag.Int64Var(&o.seed, "seed", 1, "workload seed; the same seed generates the same dumps")
	flag.IntVar(&o.seconds, "seconds", 20, "measurement window in seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting the per-layer metrics")
	flag.StringVar(&o.out, "out", ".bench_build", "directory for the run's temp data and trace output")
	flag.Parse()
	log.SetFlags(0)
	log.SetPrefix("perfbench: ")
	if trace != 0 && trace != 1 {
		log.Fatalf("--trace must be 0 or 1, not %d", trace)
	}
	o.trace = trace == 1
	wl, ok := workloadByName(o.workload)
	if !ok {
		log.Fatalf("unknown --workload %q (want %s)", o.workload, workloadNames())
	}
	if o.seconds < 1 {
		log.Fatalf("--seconds must be at least 1")
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, runDeadline)
	defer cancel()

	rep, err := run(ctx, o, wl)
	if err != nil {
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			err = fmt.Errorf("run exceeded its %v deadline: %w", runDeadline, err)
		case errors.Is(err, context.Canceled):
			err = fmt.Errorf("interrupted: %w", err)
		}
		log.Print(err)
		os.Exit(1)
	}
	rep.writeTable(os.Stderr)
	for _, doc := range []any{map[string]any{"stamp": rep.stamp()}, rep.result()} {
		line, err := json.Marshal(doc)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(string(line))
	}
	if !rep.correct() {
		log.Printf("output check failed: %d of %d jobs failed", rep.failed, rep.attempted)
		os.Exit(1)
	}
}
