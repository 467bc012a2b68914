package ingest

import (
	"math"
	"slices"
	"testing"

	"structaware/internal/xmath"
)

// fuzzWeights decodes one weight per byte from an alphabet chosen to reach
// every branch of the reservoir's step: the top three bits pick a class and
// the low five a parameter. grow carries the geometric class's state, so a
// run of those bytes makes heavy arrivals that later demote.
func fuzzWeights(data []byte) []float64 {
	ws := make([]float64, len(data))
	grow := 1.0
	for i, b := range data {
		p := float64(b & 31)
		switch b >> 5 {
		case 0:
			ws[i] = 0
		case 1: // subnormal
			ws[i] = math.SmallestNonzeroFloat64 * (1 + p)
		case 2: // equal weights: a run of these bytes is a run of ties
			ws[i] = 1
		case 3: // geometric growth: heavy arrivals that demote
			grow *= 1.5 + p/16
			ws[i] = grow
		case 4: // tiny
			ws[i] = 1e-12 * (1 + p)
		case 5, 6:
			ws[i] = 1 + p/8
		default: // rejected mid-batch
			ws[i] = [...]float64{math.NaN(), -1, math.Inf(1)}[b%3]
		}
	}
	return ws
}

// FuzzPushBatchMatchesPush: a batch is per-key pushes, draw for draw. The
// input decodes to a capacity of 1–64, a threshold size (0 or positive),
// 1–3 split points and one weight per remaining byte (fuzzWeights). One
// ingester takes the keys one Push at a time, the other in PushBatch calls
// cut at the split points; a batch that fails resumes right after the
// rejected row, as a caller would resend the rest. They must fail at the
// same rows with the same errors and end in the same state: rows, seen
// keys, threshold, slots, reservoir items, τ₀ and every retained point,
// which must be the point pushed at its row.
func FuzzPushBatchMatchesPush(f *testing.F) {
	f.Add([]byte{3, 0, 1, 100, 160, 170, 180, 190, 200, 161, 171, 181, 191, 201, 162, 172})
	f.Add([]byte{0, 9, 2, 60, 120, 64, 64, 64, 64, 96, 97, 98, 0, 64, 64, 224, 64, 65, 66, 96, 128})
	f.Add([]byte{7, 1, 0, 200, 32, 33, 128, 160, 161, 162, 163, 164, 165, 166, 167, 96, 100, 104, 160, 161, 162})
	f.Add(append([]byte{15, 4, 1, 90, 170}, slices.Repeat([]byte{160, 175, 190, 205, 64, 0, 131, 33}, 40)...))
	// Capacity 2 and no tracker: the geometric bytes keep the reservoir
	// admitting, so its 3 slots are rewritten over and over, and the
	// rejected weights reach the reservoir itself.
	f.Add(append([]byte{1, 0, 1, 80, 200}, slices.Repeat([]byte{160, 170, 98, 180, 190, 224, 200, 100, 225, 210, 226, 0}, 30)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 6 {
			return
		}
		cfg := Config{Capacity: 1 + int(data[0]%64), Dims: 2}
		if data[1]%2 == 1 {
			cfg.ThresholdSize = 1 + int(data[1]/2)%64
		}
		nsplit := 1 + int(data[2]%3)
		ws := fuzzWeights(data[3+nsplit:])
		n := len(ws)
		cuts := []int{0}
		for _, b := range data[3 : 3+nsplit] {
			cuts = append(cuts, int(b)*n/256)
		}
		cuts = append(cuts, n)
		slices.Sort(cuts)
		cols := [][]uint64{make([]uint64, n), make([]uint64, n)}
		for i := range cols[0] {
			cols[0][i], cols[1][i] = uint64(i), uint64(i*7919%1024)
		}

		type failure struct {
			row int
			msg string
		}
		one, err := New(cfg, xmath.NewRand(uint64(data[0])))
		if err != nil {
			t.Fatal(err)
		}
		var want []failure
		pt := make([]uint64, 2)
		for i := range ws {
			pt[0], pt[1] = cols[0][i], cols[1][i]
			if err := one.Push(pt, ws[i]); err != nil {
				want = append(want, failure{i, err.Error()})
			}
		}

		bat, err := New(cfg, xmath.NewRand(uint64(data[0])))
		if err != nil {
			t.Fatal(err)
		}
		var got []failure
		for c := 1; c < len(cuts); c++ {
			for lo, hi := cuts[c-1], cuts[c]; lo < hi; lo = bat.Rows() {
				if bat.Rows() != lo {
					t.Fatalf("batch at row %d found %d rows ingested", lo, bat.Rows())
				}
				err := bat.PushBatch([][]uint64{cols[0][lo:hi], cols[1][lo:hi]}, ws[lo:hi])
				if err == nil {
					if bat.Rows() != hi {
						t.Fatalf("batch [%d, %d) left %d rows", lo, hi, bat.Rows())
					}
					break
				}
				got = append(got, failure{bat.Rows() - 1, err.Error()})
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("PushBatch failures %v, Push failures %v", got, want)
		}

		if bat.Rows() != one.Rows() || bat.Seen() != one.Seen() {
			t.Fatalf("rows/seen %d/%d vs %d/%d", bat.Rows(), bat.Seen(), one.Rows(), one.Seen())
		}
		tb, okB := bat.Tau()
		to, okO := one.Tau()
		if math.Float64bits(tb) != math.Float64bits(to) || okB != okO {
			t.Fatalf("tau_s %v/%v vs %v/%v", tb, okB, to, okO)
		}
		sameSlots(t, bat, one)
		sameReservoir(t, bat, one, "PushBatch vs Push")
		pushedCoords(t, one, cols)
	})
}
