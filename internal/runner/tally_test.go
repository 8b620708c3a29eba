package runner

import (
	"errors"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dhisq/internal/machine"
)

// tallyStream is one real shot stream with every part of a tally non-zero:
// several outcomes, EPR pairs and per-link congestion. Its circuit is split
// over two chips and runs under finite link bandwidth.
var tallyStream = sync.OnceValues(func() ([]Shot, error) {
	spec := remoteSpec(remoteOracleCircuit(3, 6, false), 2, machine.BackendAuto, "")
	spec.Cfg.Seed = 5
	spec.Cfg.Net.LinkSerialization = 4
	set, err := Run(spec, 48, 1)
	if err != nil {
		return nil, err
	}
	return set.Shots, nil
})

func streamOf(tb testing.TB) []Shot {
	tb.Helper()
	shots, err := tallyStream()
	if err != nil {
		tb.Fatal(err)
	}
	return shots
}

// merged folds the tallies into a fresh one, left to right.
func merged(ts ...Tally) Tally {
	var t Tally
	for _, u := range ts {
		t.Merge(u)
	}
	return t
}

// TestTallyMergeLaws holds Merge to commutativity, associativity and the
// zero Tally as identity, over tallies of one real shot stream split three
// ways, and holds the merge of the parts to the sequential fold of the
// stream — whose shot 0 is the stream's own, not a sum of Results.
func TestTallyMergeLaws(t *testing.T) {
	shots := streamOf(t)
	var want Tally
	parts := make([]Tally, 3)
	for _, s := range shots {
		want.Add(s)
		parts[s.Index%3].Add(s)
	}
	if len(want.Histogram) < 2 || want.EPRPairs == 0 || want.Net.TotalStall() == 0 {
		t.Fatalf("stream too tame to test the laws: %d outcomes, %d EPR pairs, %d stall cycles",
			len(want.Histogram), want.EPRPairs, want.Net.TotalStall())
	}
	if !reflect.DeepEqual(want.Shot0, shots[0].Result) || want.Shots != len(shots) {
		t.Fatalf("fold keeps shot 0 %+v over %d shots, want %+v over %d", want.Shot0, want.Shots, shots[0].Result, len(shots))
	}
	a, b, c := parts[0], parts[1], parts[2]
	for name, law := range map[string][2]Tally{
		"commutative": {merged(a, b), merged(b, a)},
		"associative": {merged(merged(a, b), c), merged(a, merged(b, c))},
		"left zero":   {merged(Tally{}, a), a},
		"sequential":  {merged(c, a, b), want},
	} {
		if !reflect.DeepEqual(law[0], law[1]) {
			t.Errorf("%s: %+v\nvs %+v", name, law[0], law[1])
		}
	}
	right := a
	right.Merge(Tally{})
	if !reflect.DeepEqual(right, a) {
		t.Error("right zero: merging the zero Tally changed a tally")
	}
}

// TestTallyHistogramMatchesSequential: the fold's histogram is the plain
// count of the shots' outcomes, and ShotSet.Histogram is that count.
func TestTallyHistogramMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	set := &ShotSet{NumBits: 3}
	want := Histogram{}
	for i := 0; i < 2085; i++ {
		bits := []int{rng.Intn(2), rng.Intn(2), rng.Intn(2)}
		set.Shots = append(set.Shots, Shot{Index: i, Bits: bits})
		want[string([]byte{'0' + byte(bits[0]), '0' + byte(bits[1]), '0' + byte(bits[2])})]++
	}
	if got := set.Tally().Histogram; !reflect.DeepEqual(got, want) {
		t.Fatalf("tally histogram diverged:\n%s\nvs\n%s", got, want)
	}
	if got := set.Histogram(); !reflect.DeepEqual(got, want) {
		t.Fatalf("set histogram diverged:\n%s\nvs\n%s", got, want)
	}
}

// FuzzTallyMerge splits one shot stream at random across up to 8 tallies
// and merges them pairwise in a random order and grouping: the result must
// be the sequential fold of the stream.
func FuzzTallyMerge(f *testing.F) {
	shots := streamOf(f)
	var want Tally
	for _, s := range shots {
		want.Add(s)
	}
	f.Add(int64(1), uint8(3))
	f.Add(int64(7), uint8(0))
	f.Add(int64(-2), uint8(255))
	f.Fuzz(func(t *testing.T, seed int64, k uint8) {
		rng := rand.New(rand.NewSource(seed))
		parts := make([]Tally, int(k%8)+1)
		for _, s := range shots {
			parts[rng.Intn(len(parts))].Add(s)
		}
		for len(parts) > 1 {
			i, j := rng.Intn(len(parts)), rng.Intn(len(parts)-1)
			if j >= i {
				j++
			}
			parts[i].Merge(parts[j])
			parts = append(parts[:j], parts[j+1:]...)
		}
		if !reflect.DeepEqual(parts[0], want) {
			t.Fatalf("merged %+v\nvs sequential %+v", parts[0], want)
		}
	})
}

// TestFanOutStopsAfterFirstFailure: on two replicas, items 3 and 5 fail and
// 3 is the slower. The error is item 3's, as on one replica, and once 5
// has failed nothing past it is run: at most items 0 to 5.
func TestFanOutStopsAfterFirstFailure(t *testing.T) {
	var ran atomic.Int64
	errItem3, errItem5 := errors.New("item 3 failed"), errors.New("item 5 failed")
	err := fanOut(make([]*machine.Machine, 2), 64, func(_, k int) error {
		ran.Add(1)
		switch k {
		case 3:
			time.Sleep(50 * time.Millisecond)
			return errItem3
		case 5:
			return errItem5
		}
		return nil
	})
	if err != errItem3 {
		t.Fatalf("fanOut returned %v, want item 3's error", err)
	}
	if n := ran.Load(); n > 3+1+2 {
		t.Fatalf("%d items ran after failures at 3 and 5, want at most 6", n)
	}
}
