package core

import (
	"errors"
	"math"
	"runtime"
	"testing"

	"structaware/internal/structure"
)

// sameSummary compares two summaries bit for bit.
func sameSummary(t *testing.T, got, want *Summary, label string) {
	t.Helper()
	if got.Size() != want.Size() || math.Float64bits(got.Tau) != math.Float64bits(want.Tau) {
		t.Fatalf("%s: size/tau %d/%v vs %d/%v", label, got.Size(), got.Tau, want.Size(), want.Tau)
	}
	for k := 0; k < got.Size(); k++ {
		if math.Float64bits(got.Weights[k]) != math.Float64bits(want.Weights[k]) {
			t.Fatalf("%s: key %d weight %v vs %v", label, k, got.Weights[k], want.Weights[k])
		}
		for d := range got.Coords {
			if got.Coords[d][k] != want.Coords[d][k] {
				t.Fatalf("%s: key %d axis %d: %d vs %d", label, k, d, got.Coords[d][k], want.Coords[d][k])
			}
		}
	}
}

// TestBuilderSnapshotDeterminism is the Snapshot contract: (1) a snapshot
// taken mid-stream is bit-identical to a fresh Builder fed the same prefix
// and finalized; (2) the snapshotted Builder keeps ingesting, and its
// Finalize is bit-identical to a fresh Builder fed the whole stream — the
// snapshot left no trace. The buffer is far smaller than the stream, so the
// reservoir overflows before the snapshot point and keeps replacing items
// after it, each kept key taking the coordinate slot of the key it pushed
// out.
func TestBuilderSnapshotDeterminism(t *testing.T) {
	ds := make2D(t, 4000, 14, 53)
	half := ds.Len() / 2
	prefix, suffix := splitDataset(t, ds, half)
	for _, m := range []Method{Aware, Oblivious} {
		cfg := Config{Size: 60, Method: m, Seed: 9, Buffer: 200}

		b, err := NewBuilder(ds.Axes, cfg)
		if err != nil {
			t.Fatal(err)
		}
		pushDataset(t, b, prefix)
		snap, err := b.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		// A second snapshot from the same state reproduces the first.
		snap2, err := b.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		sameSummary(t, snap2, snap, m.String()+": repeated snapshot")

		pushDataset(t, b, suffix)
		fin, err := b.Finalize()
		if err != nil {
			t.Fatal(err)
		}

		bp, err := NewBuilder(ds.Axes, cfg)
		if err != nil {
			t.Fatal(err)
		}
		pushDataset(t, bp, prefix)
		wantSnap, err := bp.Finalize()
		if err != nil {
			t.Fatal(err)
		}
		sameSummary(t, snap, wantSnap, m.String()+": snapshot vs fresh prefix build")

		bf, err := NewBuilder(ds.Axes, cfg)
		if err != nil {
			t.Fatal(err)
		}
		pushDataset(t, bf, ds)
		wantFin, err := bf.Finalize()
		if err != nil {
			t.Fatal(err)
		}
		sameSummary(t, fin, wantFin, m.String()+": finalize-after-snapshot vs fresh full build")
	}
}

// splitDataset cuts ds into [0,at) and [at,len) row datasets.
func splitDataset(t *testing.T, ds *structure.Dataset, at int) (*structure.Dataset, *structure.Dataset) {
	t.Helper()
	cut := func(lo, hi int) *structure.Dataset {
		coords := make([][]uint64, ds.Dims())
		for d := range coords {
			coords[d] = ds.Coords[d][lo:hi]
		}
		return &structure.Dataset{Axes: ds.Axes, Coords: coords, Weights: ds.Weights[lo:hi]}
	}
	return cut(0, at), cut(at, ds.Len())
}

// TestBuilderSnapshotStateErrors: snapshotting an empty Builder reports
// ErrNoData and leaves it usable; snapshotting a finalized Builder reports
// the finalized state.
func TestBuilderSnapshotStateErrors(t *testing.T) {
	axes := []structure.Axis{structure.BitTrieAxis(10)}
	b, err := NewBuilder(axes, Config{Size: 10, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Snapshot(); !errors.Is(err, ErrNoData) {
		t.Fatalf("empty snapshot: %v, want ErrNoData", err)
	}
	// Zero-weight keys alone are still "no data".
	if err := b.Push([]uint64{1}, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Snapshot(); !errors.Is(err, ErrNoData) {
		t.Fatalf("zero-weight snapshot: %v, want ErrNoData", err)
	}
	if err := b.Push([]uint64{2}, 1.5); err != nil {
		t.Fatal(err)
	}
	snap, err := b.Snapshot()
	if err != nil || snap.Size() != 1 {
		t.Fatalf("snapshot after recovery: %v (size %d)", err, snap.Size())
	}
	if _, err := b.Finalize(); err != nil {
		t.Fatalf("finalize after snapshots: %v", err)
	}
	if _, err := b.Snapshot(); !errors.Is(err, ErrFinalized) {
		t.Fatalf("snapshot after finalize: %v, want ErrFinalized", err)
	}
}

// mallocs returns the number of heap allocations f makes.
func mallocs(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestSnapshotCopiesNoIngestState: Snapshot reads the reservoir in place,
// so it allocates what Finalize allocates on an identical Builder plus the
// clone of the generator, and nothing for a copy of the ingestion state.
func TestSnapshotCopiesNoIngestState(t *testing.T) {
	ds := make2D(t, 20000, 14, 53)
	cfg := Config{Size: 60, Seed: 9, Buffer: 300}
	builder := func() *Builder {
		b, err := NewBuilder(ds.Axes, cfg)
		if err != nil {
			t.Fatal(err)
		}
		pushDataset(t, b, ds)
		return b
	}
	snapB, finB := builder(), builder()
	var err error
	snap := mallocs(func() { _, err = snapB.Snapshot() })
	if err != nil {
		t.Fatal(err)
	}
	fin := mallocs(func() { _, err = finB.Finalize() })
	if err != nil {
		t.Fatal(err)
	}
	if snap > fin+1 {
		t.Fatalf("Snapshot made %d allocations, Finalize %d: more than the generator clone apart", snap, fin)
	}
}
