package sparse

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// blockMulSubRef is the kernel BlockMulSub replaced — one k-column at a
// time, each a separate pass over the dst column — kept as the reference
// the register-blocked kernel is checked against.
func blockMulSubRef(dst, a, b []float64, m, n, k int) {
	for j := 0; j < n; j++ {
		dcol := dst[j*m : (j+1)*m]
		for p := 0; p < k; p++ {
			bjp := b[p*n+j]
			if bjp == 0 {
				continue
			}
			acol := a[p*m : (p+1)*m]
			for i := 0; i < m; i++ {
				dcol[i] -= acol[i] * bjp
			}
		}
	}
}

// blockSolveRef is the BlockSolve that was replaced (a strided dot product
// per element), the reference for the column-oriented one.
func blockSolveRef(a, l []float64, m, n int) {
	for j := 0; j < n; j++ {
		ljj := l[j*n+j]
		for i := 0; i < m; i++ {
			v := a[j*m+i]
			for k := 0; k < j; k++ {
				v -= a[k*m+i] * l[k*n+j]
			}
			a[j*m+i] = v / ljj
		}
	}
}

// randBlock returns a rows-by-cols column-major block of values in
// [-1, 1); zeroCols of its columns, picked at random, are all zero (a
// source block's structural zeros are whole columns of b in the update).
func randBlock(rng *rand.Rand, rows, cols, zeroCols int) []float64 {
	blk := make([]float64, rows*cols)
	for i := range blk {
		blk[i] = 2*rng.Float64() - 1
	}
	for _, c := range rng.Perm(cols)[:zeroCols] {
		for i := 0; i < rows; i++ {
			blk[c*rows+i] = 0
		}
	}
	return blk
}

func TestBlockMulSubMatchesReference(t *testing.T) {
	// Every shape up to 19 covers ragged last blocks, all four k mod 4
	// tails and a lone last dst column (odd n). b gets whole zero columns
	// and, in half its rows, a zero run, so column pairs occur in which
	// neither, one or both have a group of four to skip.
	rng := rand.New(rand.NewSource(15))
	for m := 1; m <= 19; m++ {
		for n := 1; n <= 19; n++ {
			for k := 1; k <= 19; k++ {
				a := randBlock(rng, m, k, 0)
				b := randBlock(rng, n, k, rng.Intn(k+1)/2)
				for j := 0; j < n; j += 1 + rng.Intn(2) {
					for p, end := rng.Intn(k), rng.Intn(k+1); p < end; p++ {
						b[p*n+j] = 0
					}
				}
				want := randBlock(rng, m, n, 0)
				got := append([]float64(nil), want...)
				blockMulSubRef(want, a, b, m, n, k)
				BlockMulSub(got, a, b, m, n, k)
				for i := range got {
					if d := math.Abs(got[i] - want[i]); !(d <= 1e-12*float64(k)) {
						t.Fatalf("m=%d n=%d k=%d: entry %d = %g, reference %g (diff %g)",
							m, n, k, i, got[i], want[i], d)
					}
				}
			}
		}
	}
}

func TestBlockMulSubSkipsZeros(t *testing.T) {
	// A zero entry of b must not touch dst even where a holds an infinity
	// (0·Inf would be NaN): the skip is exact. Row 1 of b is ones, rows 0
	// and 2 are zero, so of dst's three columns only the middle one may
	// change — the pair (0, 1) has one side to skip, column 2 stands alone
	// — whether k is whole groups of four or has a tail.
	const m, n = 2, 3
	for _, k := range []int{4, 5, 7, 8} {
		a := make([]float64, m*k)
		for i := range a {
			a[i] = math.Inf(1)
		}
		b := make([]float64, n*k)
		for p := 0; p < k; p++ {
			b[p*n+1] = 1
		}
		dst := []float64{1, 2, 3, 4, 5, 6}
		BlockMulSub(dst, a, b, m, n, k)
		want := []float64{1, 2, math.Inf(-1), math.Inf(-1), 5, 6}
		for i := range dst {
			if dst[i] != want[i] {
				t.Fatalf("k=%d: dst = %v, want %v", k, dst, want)
			}
		}
	}
}

func TestBlockSolveMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for m := 1; m <= 19; m++ {
		for n := 1; n <= 19; n++ {
			l := randBlock(rng, n, n, 0)
			for j := 0; j < n; j++ {
				l[j*n+j] = 2 + rng.Float64() // diagonally dominant enough to stay O(1)
				for i := 0; i < n; i++ {
					if i != j {
						l[j*n+i] /= float64(n)
					}
				}
			}
			want := randBlock(rng, m, n, 0)
			got := append([]float64(nil), want...)
			blockSolveRef(want, l, m, n)
			BlockSolve(got, l, m, n)
			for i := range got {
				if d := math.Abs(got[i] - want[i]); !(d <= 1e-12*float64(n)) {
					t.Fatalf("m=%d n=%d: entry %d = %g, reference %g (diff %g)", m, n, i, got[i], want[i], d)
				}
			}
		}
	}
}

var kernelShapes = []struct{ m, n, k int }{{16, 16, 16}, {16, 16, 5}, {7, 16, 16}}

func benchMulSub(b *testing.B, kernel func(dst, a, b []float64, m, n, k int)) {
	for _, s := range kernelShapes {
		b.Run(fmt.Sprintf("%dx%dx%d", s.m, s.n, s.k), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			x, y := randBlock(rng, s.m, s.k, 0), randBlock(rng, s.n, s.k, 0)
			dst := make([]float64, s.m*s.n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				kernel(dst, x, y, s.m, s.n, s.k)
			}
		})
	}
}

// BenchmarkBlockMulSub is one block update at the benchmark's block size
// (16), full and with a ragged k or m; BenchmarkBlockMulSubRef is the
// replaced kernel on the same shapes (DESIGN.md §8 tabulates both).
func BenchmarkBlockMulSub(b *testing.B)    { benchMulSub(b, BlockMulSub) }
func BenchmarkBlockMulSubRef(b *testing.B) { benchMulSub(b, blockMulSubRef) }

// BenchmarkBlockSolve is one off-diagonal finalization, 16-by-16 (plus a
// 2 KiB copy that restores the block, so values stay in range).
func BenchmarkBlockSolve(b *testing.B) {
	const n = 16
	rng := rand.New(rand.NewSource(1))
	l := randBlock(rng, n, n, 0)
	for j := 0; j < n; j++ {
		l[j*n+j] = 2
	}
	orig := randBlock(rng, n, n, 0)
	a := make([]float64, n*n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(a, orig)
		BlockSolve(a, l, n, n)
	}
}
