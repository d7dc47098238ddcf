// Package snapshot is the crash-consistent serialization layer of the
// simulator: a versioned, hand-rolled binary codec (stdlib only), an
// atomic write-rename file format with a checksummed header, and a
// draw-counting random source that makes math/rand state restorable.
// Everything above it (cluster, nn, schedulers, sim, the facade) encodes
// its own state through the Writer/Reader pair; this package owns only
// the bytes.
//
// Format stability: every payload is tagged with FormatVersion. The
// version guard (TestSnapshotVersionGuard in internal/lint) fails
// whenever a field the codec writes or reads is added, removed, renamed
// or retyped without a version bump, so old snapshots are never silently
// misread. Decoding is total: corrupted or truncated input yields a
// typed error (ErrCorrupt / ErrVersion / ErrMismatch), never a panic —
// pinned by FuzzSnapshotDecode.
//
// Determinism: encoding iterates only ordered state (slices, sorted key
// sets), so equal simulation states produce byte-identical snapshots.
// The package is enrolled in the lint DeterministicPaths registry
// (mapiter, noclock, sharedcapture), plus the repo-wide epochguard,
// floatcmp and pkgdoc checks.
package snapshot

import (
	"errors"
	"fmt"
)

// FormatVersion is the snapshot payload format version. Bump it whenever
// the byte layout changes — including any field added to or removed from
// the codec of a snapshotted struct (the version guard enforces this).
const FormatVersion = 9

// ErrCorrupt marks snapshot bytes that cannot be decoded: bad magic,
// checksum mismatch, truncation, or values that fail validation.
// Match with errors.Is.
var ErrCorrupt = errors.New("snapshot: corrupt")

// ErrVersion marks a snapshot written by an incompatible format version.
var ErrVersion = errors.New("snapshot: incompatible format version")

// ErrMismatch marks a structurally valid snapshot that does not belong
// to the run being resumed (different trace, cluster, or scheduler).
var ErrMismatch = errors.New("snapshot: run configuration mismatch")

// Corruptf builds an ErrCorrupt-wrapping error with context.
func Corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// Mismatchf builds an ErrMismatch-wrapping error with context.
func Mismatchf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrMismatch, fmt.Sprintf(format, args...))
}
