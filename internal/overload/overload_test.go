package overload

import (
	"math/rand"
	"testing"

	"github.com/elisa-go/elisa/internal/simtime"
)

func at(us int64) simtime.Time { return simtime.Time(us) * simtime.Time(simtime.Microsecond) }

func TestOverloadTokenBucketRefill(t *testing.T) {
	// 1M ops/s = one token per microsecond; burst 2.
	b := NewTokenBucket(1_000_000, 2)
	if !b.Allow(at(0)) || !b.Allow(at(0)) {
		t.Fatal("burst of 2 must admit two ops at t=0")
	}
	if b.Allow(at(0)) {
		t.Fatal("empty bucket admitted a third op")
	}
	if !b.Allow(at(1)) {
		t.Fatal("1µs refill at 1M ops/s must admit one op")
	}
	if b.Allow(at(1)) {
		t.Fatal("bucket admitted beyond its refill")
	}
	// A long idle stretch refills at most to the burst.
	if !b.Allow(at(1000)) || !b.Allow(at(1000)) {
		t.Fatal("refilled bucket must admit a full burst")
	}
	if b.Allow(at(1000)) {
		t.Fatal("bucket refilled beyond its burst")
	}
	var nb *TokenBucket
	if !nb.Allow(at(0)) {
		t.Fatal("nil bucket must admit everything")
	}
}

func TestOverloadShedderClassLadder(t *testing.T) {
	s := NewShedder(ShedConfig{Low: 0.5, High: 0.9, Classes: 3})
	// Below the low watermark nothing is shed.
	for class := 0; class < 3; class++ {
		if !s.Admit(at(0), 0.3, class) {
			t.Fatalf("class %d shed below the low watermark", class)
		}
	}
	// Mid-ramp (level 0.5 -> threshold 1): only class 0 is shed.
	if s.Admit(at(1), 0.7, 0) {
		t.Fatal("class 0 admitted at occupancy 0.7")
	}
	if !s.Admit(at(1), 0.7, 1) || !s.Admit(at(1), 0.7, 2) {
		t.Fatal("classes 1/2 shed at occupancy 0.7")
	}
	// At/above the high watermark everything below the top class sheds.
	if s.Admit(at(2), 1.0, 0) || s.Admit(at(2), 1.0, 1) {
		t.Fatal("low/mid class admitted at full occupancy")
	}
	if !s.Admit(at(2), 1.0, 2) {
		t.Fatal("top class must never be shed")
	}
	if s.Shed() != 3 {
		t.Fatalf("shed count = %d, want 3", s.Shed())
	}
	// Dropping below the low watermark clears saturation.
	if !s.Admit(at(3), 0.1, 0) {
		t.Fatal("class 0 shed after occupancy recovered")
	}
}

func TestOverloadShedderSustainedDelay(t *testing.T) {
	s := NewShedder(ShedConfig{Low: 0.5, High: 0.9, Classes: 2, After: 10 * simtime.Microsecond})
	// Saturated, but not yet for long enough: admit.
	if !s.Admit(at(0), 1.0, 0) || !s.Admit(at(5), 1.0, 0) {
		t.Fatal("shed before the sustained-saturation delay elapsed")
	}
	if s.Admit(at(10), 1.0, 0) {
		t.Fatal("class 0 admitted after sustained saturation")
	}
	// A dip below Low resets the delay clock.
	if !s.Admit(at(11), 0.2, 0) {
		t.Fatal("shed after occupancy dipped")
	}
	if !s.Admit(at(12), 1.0, 0) {
		t.Fatal("the sustained-saturation clock must restart after a dip")
	}
}

func TestOverloadBackoffDeterministicAndBounded(t *testing.T) {
	base, max := 2*simtime.Microsecond, 16*simtime.Microsecond
	a := rand.New(rand.NewSource(7))
	bng := rand.New(rand.NewSource(7))
	for attempt := 0; attempt < 8; attempt++ {
		da := Backoff(a, base, max, attempt)
		db := Backoff(bng, base, max, attempt)
		if da != db {
			t.Fatalf("attempt %d: same seed gave %v vs %v", attempt, da, db)
		}
		floor := base << uint(attempt)
		if floor > max {
			floor = max
		}
		if da < floor || da > max+max/4 {
			t.Fatalf("attempt %d: backoff %v outside [%v, %v]", attempt, da, floor, max+max/4)
		}
	}
	// No RNG: pure exponential, capped.
	if d := Backoff(nil, base, max, 0); d != base {
		t.Fatalf("attempt 0 without jitter = %v, want %v", d, base)
	}
	if d := Backoff(nil, base, max, 20); d != max {
		t.Fatalf("huge attempt without jitter = %v, want the %v cap", d, max)
	}
}
