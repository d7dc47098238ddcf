// Package chaostest is the crash–replay harness for the snapshot
// subsystem: its tests repeatedly "kill" a simulation at randomized
// (seeded) ticks, resume a fresh process image from the latest on-disk
// snapshot, and assert that the final metrics — down to each job's
// completion time — are byte-identical to a run that was never
// interrupted, across schedulers and failure configurations. It also
// hosts FuzzSnapshotDecode (mutated snapshot bytes must yield typed
// errors, never panics). The format-version guard lives beside the
// snapstate analyzer in internal/lint.
//
// The package intentionally contains no production code: everything
// lives in test files so the harness ships with the repo's test suite.
// Determinism contract: the harness only *verifies* determinism; its own
// randomness (kill-tick selection) is seeded and reproducible.
package chaostest
