package sparse

import (
	"math"
	"sort"
)

// Block partitioning of the filled structure. Columns are grouped into
// blocks of size B (the paper uses 32x32 double-precision blocks); block
// (I,J) of L is stored densely if any scalar entry of L falls in it. The
// scalar fill pattern is closed under block updates, so block (I,J) is
// present whenever blocks (I,K) and (J,K) are.
type Blocks struct {
	N  int // matrix order
	B  int // block size
	NB int // number of block rows/columns

	// Rows[J] lists the block rows I >= J with block (I,J) present,
	// ascending (J itself is always first: the diagonal block).
	Rows [][]int32

	// present[J] is the set view of Rows[J].
	present []map[int32]bool
}

// NewBlocks derives the block pattern of L from the scalar fill.
func NewBlocks(f *Fill, b int) *Blocks {
	nb := (f.N + b - 1) / b
	bl := &Blocks{N: f.N, B: b, NB: nb}
	bl.present = make([]map[int32]bool, nb)
	for j := range bl.present {
		bl.present[j] = map[int32]bool{int32(j): true} // diagonal block
	}
	for j := 0; j < f.N; j++ {
		bj := int32(j / b)
		for _, i := range f.Struct[j] {
			bl.present[bj][i/int32(b)] = true
		}
	}
	bl.Rows = make([][]int32, nb)
	for j := range bl.Rows {
		rows := make([]int32, 0, len(bl.present[j]))
		for i := range bl.present[j] {
			rows = append(rows, i)
		}
		sort.Slice(rows, func(a, c int) bool { return rows[a] < rows[c] })
		bl.Rows[j] = rows
	}
	return bl
}

// Has reports whether block (i,j), i >= j, is present in L.
func (bl *Blocks) Has(i, j int) bool { return bl.present[j][int32(i)] }

// NumBlocks returns the total number of stored blocks.
func (bl *Blocks) NumBlocks() int {
	n := 0
	for _, r := range bl.Rows {
		n += len(r)
	}
	return n
}

// Dim returns the row count of block index i (the last block may be
// short).
func (bl *Blocks) Dim(i int) int {
	if (i+1)*bl.B <= bl.N {
		return bl.B
	}
	return bl.N - i*bl.B
}

// Update describes one block update task: block (I,J) -= L(I,K)*L(J,K)^T.
type Update struct{ I, J, K int32 }

// Updates enumerates every block update of the factorization in a
// deterministic order: for each source column K and each ordered pair of
// its below-diagonal blocks whose destination block is present. A pair
// whose destination (I,J) is absent from the fill contributes exactly
// zero — any nonzero scalar contribution L(i,k)·L(j,k) would have induced
// scalar fill at (i,j) — so skipping it is exact, not an approximation.
func (bl *Blocks) Updates() []Update {
	var ups []Update
	for k := 0; k < bl.NB; k++ {
		rows := bl.Rows[k]
		// rows[0] == k is the diagonal; updates come from below-diagonal
		// pairs (including J==I).
		for a := 1; a < len(rows); a++ {
			for c := a; c < len(rows); c++ {
				if !bl.Has(int(rows[c]), int(rows[a])) {
					continue
				}
				ups = append(ups, Update{I: rows[c], J: rows[a], K: int32(k)})
			}
		}
	}
	return ups
}

// UpdateCounts returns, for each present block (I,J), how many updates it
// receives, keyed by I*NB+J.
func (bl *Blocks) UpdateCounts() map[int64]int {
	counts := make(map[int64]int)
	for _, u := range bl.Updates() {
		counts[int64(u.I)*int64(bl.NB)+int64(u.J)]++
	}
	return counts
}

// UpdateFlops returns the multiply-add flops of one block update
// (2·m·n·k, with short trailing blocks scaled accordingly).
func (bl *Blocks) UpdateFlops(u Update) float64 {
	return 2 * float64(bl.Dim(int(u.I))) * float64(bl.Dim(int(u.J))) * float64(bl.Dim(int(u.K)))
}

// FactorFlops returns the flops of factoring diagonal block J.
func (bl *Blocks) FactorFlops(j int) float64 {
	d := float64(bl.Dim(j))
	return d * d * d / 3
}

// SolveFlops returns the flops of the triangular solve finalizing block
// (I,J).
func (bl *Blocks) SolveFlops(i, j int) float64 {
	return float64(bl.Dim(i)) * float64(bl.Dim(j)) * float64(bl.Dim(j))
}

// TotalBlockFlops returns the total flops of the block factorization.
func (bl *Blocks) TotalBlockFlops() float64 {
	var total float64
	for _, u := range bl.Updates() {
		total += bl.UpdateFlops(u)
	}
	for j := 0; j < bl.NB; j++ {
		total += bl.FactorFlops(j)
		for _, i := range bl.Rows[j][1:] {
			total += bl.SolveFlops(int(i), j)
		}
	}
	return total
}

// --- dense block kernels (column-major b-by-b blocks) ---

// ExtractBlock copies A's entries for block (bi,bj) into a dense
// column-major buffer of size Dim(bi) x Dim(bj). Only the lower triangle
// of A is stored, so for bi == bj the upper part within the block stays
// zero (the factor never reads it).
func (bl *Blocks) ExtractBlock(m *Matrix, bi, bj int) []float64 {
	rdim, cdim := bl.Dim(bi), bl.Dim(bj)
	buf := make([]float64, rdim*cdim)
	r0, c0 := bi*bl.B, bj*bl.B
	for j := 0; j < cdim; j++ {
		col := c0 + j
		for p := m.ColPtr[col]; p < m.ColPtr[col+1]; p++ {
			i := int(m.RowIdx[p])
			if i >= r0 && i < r0+rdim {
				buf[j*rdim+(i-r0)] = m.Values[p]
			}
		}
	}
	return buf
}

// BlockMulSub computes dst -= a * b^T where a is m-by-k, b is n-by-k and
// dst is m-by-n, all column-major.
//
// The kernel is register-blocked two dst columns by four k: one pass over
// a pair of dst columns consumes four columns of a, so a dst element is
// loaded and stored once per four multiply-adds, not once per one, and an
// element of a is loaded once per two. The column slices are re-sliced to
// one length, which lets the compiler drop the bounds checks from the
// inner loops. Zero entries of b (a source block's structural zeros, which
// come in runs along its rows) are skipped as before: per group of four
// for each dst column, falling back to the one-column loop when only one of
// the pair has work, and per entry in the ragged tail of k. Inside a group
// that is only partly zero the zero terms contribute exactly nothing.
func BlockMulSub(dst, a, b []float64, m, n, k int) {
	for j := 0; j < n; j += 2 {
		d0 := dst[j*m : (j+1)*m]
		pair := j+1 < n // the last column of an odd n stands alone
		d1 := d0
		if pair {
			d1 = dst[(j+1)*m:]
		}
		d1 = d1[:len(d0)]
		p := 0
		for ; p+4 <= k; p += 4 {
			r0, r1, r2, r3 := b[p*n+j:], b[(p+1)*n+j:], b[(p+2)*n+j:], b[(p+3)*n+j:]
			b00, b01, b02, b03 := r0[0], r1[0], r2[0], r3[0]
			var b10, b11, b12, b13 float64
			if pair {
				b10, b11, b12, b13 = r0[1], r1[1], r2[1], r3[1]
			}
			z0 := b00 == 0 && b01 == 0 && b02 == 0 && b03 == 0
			z1 := b10 == 0 && b11 == 0 && b12 == 0 && b13 == 0
			if z0 && z1 {
				continue
			}
			a0 := a[p*m:][:len(d0)]
			a1 := a[(p+1)*m:][:len(d0)]
			a2 := a[(p+2)*m:][:len(d0)]
			a3 := a[(p+3)*m:][:len(d0)]
			switch {
			case z1:
				for i := range d0 {
					d0[i] -= a0[i]*b00 + a1[i]*b01 + a2[i]*b02 + a3[i]*b03
				}
			case z0:
				for i := range d0 {
					d1[i] -= a0[i]*b10 + a1[i]*b11 + a2[i]*b12 + a3[i]*b13
				}
			default:
				for i := range d0 {
					x0, x1, x2, x3 := a0[i], a1[i], a2[i], a3[i]
					d0[i] -= x0*b00 + x1*b01 + x2*b02 + x3*b03
					d1[i] -= x0*b10 + x1*b11 + x2*b12 + x3*b13
				}
			}
		}
		for ; p < k; p++ {
			acol := a[p*m:][:len(d0)]
			if b0 := b[p*n+j]; b0 != 0 {
				for i := range d0 {
					d0[i] -= acol[i] * b0
				}
			}
			if !pair {
				continue
			}
			if b1 := b[p*n+j+1]; b1 != 0 {
				for i := range d1 {
					d1[i] -= acol[i] * b1
				}
			}
		}
	}
}

// BlockFactor computes the in-place Cholesky factorization of the n-by-n
// lower-triangular block a (column-major). It panics if the block is not
// positive definite, which indicates corrupted updates.
func BlockFactor(a []float64, n int) {
	for j := 0; j < n; j++ {
		d := a[j*n+j]
		for k := 0; k < j; k++ {
			v := a[k*n+j]
			d -= v * v
		}
		if d <= 0 {
			panic("sparse: block not positive definite")
		}
		// Store L(j,j); keep the strictly-upper part untouched.
		diag := math.Sqrt(d)
		a[j*n+j] = diag
		for i := j + 1; i < n; i++ {
			v := a[j*n+i]
			for k := 0; k < j; k++ {
				v -= a[k*n+i] * a[k*n+j]
			}
			a[j*n+i] = v / diag
		}
	}
	// Zero the strictly upper triangle so blocks compare cleanly.
	for j := 0; j < n; j++ {
		for i := 0; i < j; i++ {
			a[j*n+i] = 0
		}
	}
}

// Note: the upper triangle inside a diagonal block is stored but unused;
// zeroing it in BlockFactor keeps block comparisons and reconstruction
// exact.

// BlockSolve computes a = a * inv(l)^T where l is the n-by-n lower
// triangular factor of the diagonal block and a is m-by-n: the
// finalization of an off-diagonal block. Column j of the result is column
// j of a less the earlier result columns scaled by row j of l, taken four
// at a time as in BlockMulSub.
func BlockSolve(a, l []float64, m, n int) {
	for j := 0; j < n; j++ {
		acol := a[j*m : (j+1)*m]
		k := 0
		for ; k+4 <= j; k += 4 {
			l0, l1, l2, l3 := l[k*n+j], l[(k+1)*n+j], l[(k+2)*n+j], l[(k+3)*n+j]
			a0 := a[k*m:][:len(acol)]
			a1 := a[(k+1)*m:][:len(acol)]
			a2 := a[(k+2)*m:][:len(acol)]
			a3 := a[(k+3)*m:][:len(acol)]
			for i := range acol {
				acol[i] -= a0[i]*l0 + a1[i]*l1 + a2[i]*l2 + a3[i]*l3
			}
		}
		for ; k < j; k++ {
			lk := l[k*n+j]
			ak := a[k*m:][:len(acol)]
			for i := range acol {
				acol[i] -= ak[i] * lk
			}
		}
		ljj := l[j*n+j]
		for i := range acol {
			acol[i] /= ljj
		}
	}
}
