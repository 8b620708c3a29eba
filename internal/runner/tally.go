package runner

import (
	"dhisq/internal/machine"
	"dhisq/internal/network"
)

// Tally is the fold of a run's shots, in memory that grows with the
// outcomes seen, not the shots run. Each replica folds its own shots with
// Add; Merge is commutative and associative with the zero Tally as its
// identity, so a run's tally is the same for any replica count, any split
// of its shots and any completion order.
type Tally struct {
	Histogram Histogram // nil until a shot is added
	Shots     int
	EPRPairs  uint64
	Net       network.CongestionStats
	Shot0     machine.Result // shot 0's, zero unless shot 0 was folded in
	has0      bool
	// Digest is Σₖ FNV-1a(k, bitsₖ) mod 2⁶⁴ over the folded shots k: as a
	// sum it ignores fold order, yet it moves when any one shot's outcome
	// does — the shot-for-shot check a histogram cannot make.
	Digest uint64
}

// Add folds one shot in. Of a shot other than shot 0 it reads only the
// bits, Result.EPRPairs and Result.Net: what machine.TallyShot promises.
func (t *Tally) Add(s Shot) {
	if t.Histogram == nil {
		t.Histogram = Histogram{}
	}
	t.Histogram[s.Key()]++
	t.Shots++
	t.EPRPairs += s.Result.EPRPairs
	t.Net = t.Net.Merge(s.Result.Net)
	if s.Index == 0 {
		t.Shot0, t.has0 = s.Result, true
	}
	t.Digest += outcomeHash(s.Index, s.Bits)
}

// Merge folds u into t. u is not written; t's histogram is its own.
func (t *Tally) Merge(u Tally) {
	if u.Shots == 0 {
		return
	}
	if t.Histogram == nil {
		t.Histogram = make(Histogram, len(u.Histogram))
	}
	for k, n := range u.Histogram {
		t.Histogram[k] += n
	}
	t.Shots += u.Shots
	t.EPRPairs += u.EPRPairs
	t.Net = t.Net.Merge(u.Net)
	if u.has0 {
		t.Shot0, t.has0 = u.Shot0, true
	}
	t.Digest += u.Digest
}

// Tally folds the set's shots.
func (s *ShotSet) Tally() (t Tally) {
	for _, shot := range s.Shots {
		t.Add(shot)
	}
	return t
}

// outcomeHash is FNV-1a over shot k's index (8 bytes, little-endian) and
// its bits (a byte each).
func outcomeHash(k int, bits []int) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for i := 0; i < 64; i += 8 {
		h = (h ^ uint64(byte(k>>i))) * prime
	}
	for _, b := range bits {
		h = (h ^ uint64(b&1)) * prime
	}
	return h
}
