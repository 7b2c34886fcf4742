// Package jobs is the analysis daemon's job machinery: a bounded worker
// pool draining a priority+FIFO queue of long-running jobs, each run under
// its own context.Context so it can be cancelled (operator DELETE) or timed
// out (per-job budget) mid-scan, with retry-with-backoff for transient
// failures and a graceful drain for shutdown.
//
// The package is deliberately generic — a job's payload and result are
// opaque `any` values and the work itself is a RunFunc supplied by the
// owner — so the same pool can schedule dump-analysis campaigns today and
// future workloads (re-verification sweeps, cross-dump correlation) without
// changing this layer. internal/service owns the analysis RunFunc.
//
// The job store is "persistent enough" for an operator workflow: every job
// ever submitted stays queryable (state, timestamps, attempts, result) for
// the life of the process. The store lives in memory; an Options.Journal
// makes each lifecycle transition durable so a restart can restore it.
// What a job's analysis observes (stages, progress, spans) is the owner's
// telemetry, not scheduling state, and is not kept here.
//
// The package never reads the wall clock directly (the noprint contract):
// timestamps come from the injected Options.Clock, which defaults to
// time.Now only at the edge, as a func value the lint rule's call-site ban
// does not apply to — operators see real wall-clock stamps, tests inject a
// fake clock.
package jobs

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"time"
)

// State is a job's lifecycle state.
type State string

// Job lifecycle states. Queued and Running are live; Done, Failed and
// Canceled are terminal.
const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Terminal reports whether the state is final (the job will never run
// again).
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Sentinel errors returned by pool operations.
var (
	// ErrNotFound is returned for an unknown job ID.
	ErrNotFound = errors.New("jobs: no such job")
	// ErrActive is returned when removing a job that has not reached a
	// terminal state yet (cancel it first).
	ErrActive = errors.New("jobs: job is still active")
	// ErrFinished is returned when cancelling a job that already reached a
	// terminal state.
	ErrFinished = errors.New("jobs: job already finished")
	// ErrDraining is returned by Submit once Drain has begun.
	ErrDraining = errors.New("jobs: pool is draining")
	// ErrTransient marks a failure as retryable; wrap with Transient and
	// test with IsTransient.
	ErrTransient = errors.New("jobs: transient failure")
)

// Transient wraps err so the pool retries the job (up to
// Options.MaxAttempts, with exponential backoff). A nil err stays nil.
func Transient(err error) error {
	if err == nil {
		return nil
	}
	return &transientError{err}
}

type transientError struct{ err error }

func (e *transientError) Error() string { return e.err.Error() }

func (e *transientError) Unwrap() error { return e.err }

func (e *transientError) Is(target error) bool { return target == ErrTransient }

// IsTransient reports whether err is marked retryable.
func IsTransient(err error) bool { return errors.Is(err, ErrTransient) }

// Job is one unit of work owned by a Pool. RunFuncs receive the *Job to
// read its ID and Payload; everything else goes through the pool's API by
// ID.
type Job struct {
	id       string
	priority int
	seq      uint64
	payload  any

	// Scheduling state, guarded by the owning pool's mutex.
	state           State
	attempts        int
	errText         string
	result          any
	submitted       time.Time
	started         time.Time
	finished        time.Time
	cancel          func()
	cancelRequested bool
	heapIndex       int // index in the pool's queue, -1 when not enqueued
	retryTimer      *time.Timer
}

// ID returns the job's unique identifier.
func (j *Job) ID() string { return j.id }

// Payload returns the opaque payload given to Submit.
func (j *Job) Payload() any { return j.payload }

// Snapshot is a point-in-time copy of a job's observable state, safe to
// hold and serialize after the job has moved on.
type Snapshot struct {
	ID       string `json:"id"`
	State    State  `json:"state"`
	Priority int    `json:"priority"`
	// Attempts counts runs started (>1 after transient retries).
	Attempts int    `json:"attempts"`
	Error    string `json:"error,omitempty"`
	// Timestamps are RFC 3339; empty when the event has not happened.
	SubmittedAt string `json:"submitted_at,omitempty"`
	StartedAt   string `json:"started_at,omitempty"`
	FinishedAt  string `json:"finished_at,omitempty"`
	// Result is the RunFunc's return value (partial results survive
	// cancellation and failure). Excluded from JSON: the owner decides how
	// to serialize — the analysis service redacts key material by default.
	Result any `json:"-"`
}

// Stats is the pool's aggregate gauge set.
type Stats struct {
	Workers  int  `json:"workers"`
	Queued   int  `json:"queued"`
	Running  int  `json:"running"`
	Done     int  `json:"done"`
	Failed   int  `json:"failed"`
	Canceled int  `json:"canceled"`
	Draining bool `json:"draining"`
	// Abandoned counts queued jobs Drain left unrun. With a journal they
	// are requeued on the next boot; without one this counter is the only
	// trace they existed, which is why it is surfaced either way.
	Abandoned int `json:"abandoned"`
	// JournalErrors counts post-submit journal writes that failed (the
	// in-memory store proceeded; the WAL is missing those transitions).
	JournalErrors int `json:"journal_errors,omitempty"`
}

// newID returns a 16-hex-character random job ID. seq breaks the (never
// observed) tie where the system's entropy source fails.
func newID(seq uint64) string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return fmt.Sprintf("job-%016x", seq)
	}
	return hex.EncodeToString(b[:])
}
