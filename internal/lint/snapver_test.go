package lint

import (
	"fmt"
	"hash/fnv"
	"path/filepath"
	"strings"
	"testing"

	"mlfs/internal/snapshot"
)

// snapverPinned maps each snapshot.FormatVersion to the hash of the
// SnapshotSchema that version serializes. TestSnapshotVersionGuard
// recomputes the hash from the source; any drift means a field the
// codec writes or reads was added, removed, renamed or retyped without a
// FormatVersion bump.
//
// When the guard fails legitimately (you changed serialized state on
// purpose): bump snapshot.FormatVersion, update every encoder/decoder,
// and pin the new hash the failure message prints under the new
// version key. Never update the hash under an existing key.
var snapverPinned = map[uint32]uint64{
	7: 0x3c114978bc205022,
	8: 0xa044390eaa4f2b66,
}

// TestSnapshotVersionGuard fails when the snapshot payload schema — the
// fields snapstate classifies as encoded or restored — changes while
// snapshot.FormatVersion stays the same. Old snapshot files would then
// decode into a different shape, silently, since the version check in
// Decode would pass. Fields the codec never touches (scratch buffers,
// caches, //mlfs:derived and //mlfs:transient state) are outside the
// schema, so changing them needs no bump.
func TestSnapshotVersionGuard(t *testing.T) {
	schema := SnapshotSchema(snapshotModule(t))
	if len(schema) == 0 {
		t.Fatal("no snapshot schema found: the codec carriers were not loaded")
	}
	h := fnv.New64a()
	for _, line := range schema {
		fmt.Fprintln(h, line)
	}
	got := h.Sum64()
	want, ok := snapverPinned[snapshot.FormatVersion]
	if !ok {
		t.Fatalf("no pinned schema hash for FormatVersion %d; pin %#x in snapverPinned",
			snapshot.FormatVersion, got)
	}
	if got != want {
		t.Fatalf("snapshot payload schema changed: hash %#x, pinned %#x for FormatVersion %d.\n"+
			"A field the snapshot codec writes or reads was added, removed, renamed or retyped.\n"+
			"Bump snapshot.FormatVersion, update the encoders/decoders, and pin the new hash.\n"+
			"Schema:\n%s",
			got, want, snapshot.FormatVersion, strings.Join(schema, "\n"))
	}
}

// snapshotModule loads every package that can take part in the snapshot
// protocol: the library root and internal/..., minus the lint package
// itself (no codec; its go/* dependency tree would dominate the cost).
func snapshotModule(t *testing.T) []*Package {
	t.Helper()
	l := testLoader(t)
	dirs, err := l.Expand([]string{l.ModuleRoot, filepath.Join(l.ModuleRoot, "internal") + "/..."})
	if err != nil {
		t.Fatal(err)
	}
	var pkgs []*Package
	for _, d := range dirs {
		if d == filepath.Join(l.ModuleRoot, "internal", "lint") {
			continue
		}
		pkg, err := l.LoadDir(d)
		if err != nil {
			t.Fatalf("loading %s: %v", d, err)
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs
}
