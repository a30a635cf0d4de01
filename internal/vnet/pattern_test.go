package vnet

import (
	"math"
	"math/rand"
	"testing"
)

// perBytePattern is the pattern's defining per-byte form.
func perBytePattern(n, k int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(k*131 + i*7 + 3)
	}
	return p
}

// TestPatternTableMatchesPerByte checks the table-driven fill and check
// against the per-byte form for k across the int range (negative, large,
// wrapping) and every frame length up to an MTU slot.
func TestPatternTableMatchesPerByte(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ks := []int{0, 1, -1, 255, 256, -256, 1 << 40, -(1 << 40), math.MaxInt, math.MinInt}
	for i := 0; i < 200; i++ {
		ks = append(ks, int(rng.Uint64()))
	}
	lens := []int{0, 1, 7, 255, 256, 257, SlotBytes - 1, SlotBytes}
	for _, k := range ks {
		for _, n := range lens {
			want := perBytePattern(n, k)
			got := make([]byte, n)
			fillPattern(got, k)
			if string(got) != string(want) {
				t.Fatalf("fillPattern(len %d, k %d) differs from the per-byte form", n, k)
			}
			if !checkPattern(want, k) {
				t.Fatalf("checkPattern refuses pattern k=%d len %d", k, n)
			}
			if n > 0 {
				bad := append([]byte(nil), want...)
				j := rng.Intn(n)
				bad[j]++
				if checkPattern(bad, k) {
					t.Fatalf("checkPattern accepts pattern k=%d len %d with byte %d changed", k, n, j)
				}
				if checkPattern(want, k+1) {
					t.Fatalf("checkPattern accepts pattern k=%d len %d as k+1", k, n)
				}
			}
		}
	}
}
