package main

import (
	"strings"
	"time"

	"coldboot/internal/service"
)

// benchWorkload is one traffic mix: how its dumps are generated, how the
// service is deployed, and how many closed-loop clients drive it.
type benchWorkload struct {
	name    string
	fixture fixtureSpec
	// fixtures is how many distinct dumps a run generates; clients cycle
	// through them round-robin.
	fixtures int
	repair   int // ?repair= on every submission
	role     string
	// clients is the closed-loop client count (capped at the CPU count).
	clients int
	// fleetWorkers is the in-process fleet.Worker count (coordinator role).
	fleetWorkers int
	// extraReads makes each client also read the job's status document,
	// its trace and /metrics after every result.
	extraReads bool
	// thinkMax, when set, makes each client wait a seeded random time in
	// [0, thinkMax) before every submission.
	thinkMax time.Duration
}

// workloads are the benchmark's traffic mixes; README.md records why each
// was chosen.
var workloads = []benchWorkload{
	{
		// Mining and the descramble/hunt pass do nearly all the work.
		name: "bulk-scan",
		fixture: fixtureSpec{
			imageBytes: 32 << 20, mix: mixAllFormats,
			tempC: -50, decay: 2 * time.Second,
		},
		fixtures: 4,
		repair:   0,
		role:     service.RoleStandalone,
		clients:  2,
	},
	{
		// Window repair and schedule verification dominate.
		name: "decay-repair",
		fixture: fixtureSpec{
			imageBytes: 2 << 20, mix: mixAESMasters, masters: 16,
			tempC: -25, decay: 500 * time.Millisecond,
		},
		// Repair cost varies a lot from one master to the next, so a run
		// cycles through 96 distinct masters to keep the work of one seed
		// close to that of another.
		fixtures: 6,
		repair:   1,
		role:     service.RoleStandalone,
		clients:  2,
	},
	{
		// Lease wait, plan and shard transfer, and completion graft sit on
		// every job's critical path.
		name: "fleet-small",
		fixture: fixtureSpec{
			imageBytes: 8 << 20, mix: mixAllFormats,
			tempC: -50, decay: 2 * time.Second,
		},
		fixtures:     10,
		repair:       0,
		role:         service.RoleCoordinator,
		clients:      1,
		fleetWorkers: 2,
		extraReads:   true,
		// Idle fleet workers poll for leases every 250ms (the
		// fleet.Worker default). A client that submits the moment its
		// previous job ends stays in phase with those polls, so a small
		// change in planning time moves every job's lease wait by a whole
		// poll period. A random think time of up to one poll period gives
		// each job an independent phase, as clients arriving on their own
		// schedule would have.
		thinkMax: 250 * time.Millisecond,
	},
}

func workloadByName(name string) (benchWorkload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return benchWorkload{}, false
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}
