package dae

import "testing"

// TestAccessVersionReproducible: an access version whose subscripts sum
// several loop-invariant symbols is printed the same by every build. The
// symbols become polyhedral columns, and the access code is emitted column
// by column, so interning them in map order reordered it between builds.
func TestAccessVersionReproducible(t *testing.T) {
	const src = `
task blk(float A[N][N], int N, int Bx, int By, int Dx, int Dy) {
	for (int i = 0; i < 4; i = i + 1) {
		for (int j = 0; j < 4; j = j + 1) {
			A[Bx + By + i][Dx + Dy + j] = A[Bx + By + i][Dx + Dy + j] + 1.0;
		}
	}
}
`
	hints := map[string]int64{"N": 32, "Bx": 0, "By": 4, "Dx": 8, "Dy": 0}
	var first string
	for i := 0; i < 10; i++ {
		m, res := genFromSrc(t, src, hints)
		if res["blk"].Strategy != StrategyAffine {
			t.Fatalf("strategy = %s (%s), want affine", res["blk"].Strategy, res["blk"].Reason)
		}
		got := m.Func("blk_access").String()
		if i == 0 {
			first = got
		} else if got != first {
			t.Fatalf("build %d printed a different access version:\n%s\n---\n%s", i, first, got)
		}
	}
}
