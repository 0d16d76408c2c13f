package lagrange

import (
	"context"
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/ispd08"
	"repro/internal/pipeline"
	"repro/internal/tila"
	"repro/internal/timing"
)

// pinnedWalks fingerprints both Lagrangian optimizers on seeded small-suite
// designs at 2% release: TILA under its linear and exact-DP pricers (final
// layers, FinalDelay, FinalOverflow) and the lagrange backend (final
// layers, every round's Score and Accepted). Any change to the multiplier
// walk, the pricers, the scoring or the install that moves one bit of these
// shows up here.
var pinnedWalks = map[string]uint64{
	"adaptec1/tila-linear":  0x503be58f7bdd5e57,
	"adaptec1/tila-exactdp": 0xe840ed4145d6fe9e,
	"adaptec1/lagrange":     0xa62ddfb8eaf3eae9,
	"bigblue1/tila-linear":  0xcc7edb61ad82969f,
	"bigblue1/tila-exactdp": 0x2860587e5e05512a,
	"bigblue1/lagrange":     0x4ae23e84b981e02b,
	"newblue1/tila-linear":  0xe51ab51419fabba4,
	"newblue1/tila-exactdp": 0x9da643107dcf1355,
	"newblue1/lagrange":     0xc7a1174c162466fb,
}

// walkFingerprint hashes the released nets' final layers, in released
// order, followed by the given float bits and integers.
func walkFingerprint(st *pipeline.State, released []int, floats []float64, ints []int) uint64 {
	h := fnv.New64a()
	var b []byte
	for _, ni := range released {
		b = binary.LittleEndian.AppendUint64(b[:0], uint64(ni))
		if tr := st.Trees[ni]; tr != nil {
			for _, s := range tr.Segs {
				b = binary.LittleEndian.AppendUint64(b, uint64(s.Layer))
			}
		}
		h.Write(b)
	}
	for _, f := range floats {
		h.Write(binary.LittleEndian.AppendUint64(b[:0], math.Float64bits(f)))
	}
	for _, n := range ints {
		h.Write(binary.LittleEndian.AppendUint64(b[:0], uint64(n)))
	}
	return h.Sum64()
}

// TestOptimizersPinned runs every pinned walk on a fork of its design and
// compares the fingerprint bit for bit.
func TestOptimizersPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("runs as its own check.sh gate")
	}
	for _, name := range []string{"adaptec1", "bigblue1", "newblue1"} {
		params, err := ispd08.SmallByName(name)
		if err != nil {
			t.Fatal(err)
		}
		st := preparedFor(t, params)
		released := timing.SelectCritical(st.Timings(), 0.02)
		got := map[string]uint64{}

		for _, p := range pinTILAPricers {
			fork := st.Fork(released)
			res := tila.Optimize(fork, released, p.opt)
			got[name+"/tila-"+p.name] = walkFingerprint(fork, released,
				[]float64{res.FinalDelay}, []int{res.FinalOverflow})
		}

		fork := st.Fork(released)
		res, err := New(Options{}).Optimize(context.Background(), fork, released)
		if err != nil {
			t.Fatal(err)
		}
		var scores []float64
		var accepted []int
		for _, rs := range res.RoundLog {
			scores = append(scores, rs.Score)
			if rs.Accepted {
				accepted = append(accepted, 1)
			} else {
				accepted = append(accepted, 0)
			}
		}
		got[name+"/lagrange"] = walkFingerprint(fork, released, scores, accepted)

		for key, fp := range got {
			if want, ok := pinnedWalks[key]; !ok || fp != want {
				t.Errorf("%s: fingerprint %#016x, pinned %#016x", key, fp, want)
			}
		}
	}
}
