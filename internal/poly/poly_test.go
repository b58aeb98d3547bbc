package poly

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// box returns { 0 <= x_i < p_i } over nvar vars and nvar params.
func box(nvar int) *Polyhedron {
	p := NewPolyhedron(nvar, nvar)
	for i := 0; i < nvar; i++ {
		lo := make([]int64, p.width())
		lo[i] = 1
		p.AddConstraint(lo) // x_i >= 0
		hi := make([]int64, p.width())
		hi[i] = -1
		hi[nvar+i] = 1
		hi[len(hi)-1] = -1
		p.AddConstraint(hi) // -x_i + p_i - 1 >= 0  →  x_i <= p_i - 1
	}
	return p
}

// triangle2 returns { 0 <= i < N, i+1 <= j < N } with one parameter N.
func triangle2() *Polyhedron {
	p := NewPolyhedron(2, 1)
	p.AddConstraint([]int64{1, 0, 0, 0})   // i >= 0
	p.AddConstraint([]int64{-1, 0, 1, -1}) // i <= N-1
	p.AddConstraint([]int64{-1, 1, 0, -1}) // j >= i+1
	p.AddConstraint([]int64{0, -1, 1, -1}) // j <= N-1
	return p
}

func TestCountBox(t *testing.T) {
	p := box(2)
	if n := p.CountPoints([]int64{4, 5}); n != 20 {
		t.Errorf("count = %d, want 20", n)
	}
	if n := p.CountPoints([]int64{0, 5}); n != 0 {
		t.Errorf("empty box count = %d, want 0", n)
	}
}

func TestCountTriangle(t *testing.T) {
	p := triangle2()
	// pairs (i,j), 0<=i<j<N: C(N,2)
	for _, n := range []int64{1, 2, 3, 5, 10} {
		want := n * (n - 1) / 2
		if got := p.CountPoints([]int64{n}); got != want {
			t.Errorf("triangle count N=%d: %d, want %d", n, got, want)
		}
	}
}

func TestEnumerateLexOrder(t *testing.T) {
	p := triangle2()
	var pts [][]int64
	p.Enumerate([]int64{4}, func(pt []int64) {
		pts = append(pts, append([]int64{}, pt...))
	})
	want := [][]int64{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}}
	if len(pts) != len(want) {
		t.Fatalf("points = %d, want %d", len(pts), len(want))
	}
	for i := range want {
		if pts[i][0] != want[i][0] || pts[i][1] != want[i][1] {
			t.Errorf("pt[%d] = %v, want %v", i, pts[i], want[i])
		}
	}
}

func TestBoundsOfVarTriangle(t *testing.T) {
	p := triangle2()
	// After projecting j away, i ranges over [0, N-2].
	bi := p.BoundsOfVar(0)
	lo, ok := bi.EvalLower([]int64{10})
	if !ok || lo != 0 {
		t.Errorf("i lower = %d (ok=%v), want 0", lo, ok)
	}
	hi, ok := bi.EvalUpper([]int64{10})
	if !ok || hi != 8 {
		t.Errorf("i upper = %d (ok=%v), want 8", hi, ok)
	}
	// j ranges over [1, N-1].
	bj := p.BoundsOfVar(1)
	lo, _ = bj.EvalLower([]int64{10})
	hi, _ = bj.EvalUpper([]int64{10})
	if lo != 1 || hi != 9 {
		t.Errorf("j bounds = [%d, %d], want [1, 9]", lo, hi)
	}
}

func TestFeasible(t *testing.T) {
	p := triangle2()
	if !p.Feasible([]int64{2}) {
		t.Error("triangle with N=2 should be feasible")
	}
	if p.Feasible([]int64{1}) {
		t.Error("triangle with N=1 should be empty")
	}
}

func TestEliminatePreservesIntegerPoints(t *testing.T) {
	// FM projection must contain exactly the shadow of the integer points
	// for these dense domains: check both directions on the triangle.
	p := triangle2()
	params := []int64{7}
	proj := p.EliminateVar(1) // keep i
	want := map[int64]bool{}
	p.Enumerate(params, func(pt []int64) { want[pt[0]] = true })
	got := map[int64]bool{}
	proj.Enumerate(params, func(pt []int64) { got[pt[0]] = true })
	for i := range want {
		if !got[i] {
			t.Errorf("projection lost point i=%d", i)
		}
	}
	if len(got) != len(want) {
		t.Errorf("projection has %d points, original shadow has %d", len(got), len(want))
	}
}

// Property: for random small polyhedra, every enumerated point satisfies all
// constraints, and projection never loses the shadow of a point.
func TestEnumerationSoundness(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		p := NewPolyhedron(2, 0)
		// Bounding box to keep things finite.
		p.AddConstraint([]int64{1, 0, 5})
		p.AddConstraint([]int64{-1, 0, 5})
		p.AddConstraint([]int64{0, 1, 5})
		p.AddConstraint([]int64{0, -1, 5})
		for k := 0; k < 3; k++ {
			p.AddConstraint([]int64{
				int64(rng.Intn(7) - 3),
				int64(rng.Intn(7) - 3),
				int64(rng.Intn(11) - 2),
			})
		}
		var pts [][]int64
		p.Enumerate(nil, func(pt []int64) {
			pts = append(pts, append([]int64{}, pt...))
		})
		// Check every point satisfies every constraint.
		for _, pt := range pts {
			for _, c := range p.Cons {
				if c.V[0]*pt[0]+c.V[1]*pt[1]+c.V[2] < 0 {
					t.Fatalf("trial %d: enumerated point %v violates %v", trial, pt, c.V)
				}
			}
		}
		// Brute force reference count.
		ref := 0
		for x := int64(-5); x <= 5; x++ {
			for y := int64(-5); y <= 5; y++ {
				ok := true
				for _, c := range p.Cons {
					if c.V[0]*x+c.V[1]*y+c.V[2] < 0 {
						ok = false
						break
					}
				}
				if ok {
					ref++
				}
			}
		}
		if len(pts) != ref {
			t.Fatalf("trial %d: enumerated %d points, brute force %d\n%s", trial, len(pts), ref, p)
		}
		// Projection soundness: shadow of every point is in the projection.
		proj := p.EliminateVar(1)
		shadow := map[int64]bool{}
		proj.Enumerate(nil, func(pt []int64) { shadow[pt[0]] = true })
		for _, pt := range pts {
			if !shadow[pt[0]] {
				t.Fatalf("trial %d: projection lost x=%d", trial, pt[0])
			}
		}
	}
}

func TestAffineMapImage(t *testing.T) {
	// Domain: triangle 0<=i<j<N. Map (i,j) → (j, i): the transposed
	// triangle. Count of distinct images = count of domain points
	// (map is injective).
	p := triangle2()
	m := &AffineMap{NVar: 2, NPar: 1, Rows: [][]int64{
		{0, 1, 0, 0}, // j
		{1, 0, 0, 0}, // i
	}}
	params := []int64{6}
	imgs := map[[2]int64]bool{}
	p.Enumerate(params, func(pt []int64) {
		img := refApply(m, pt, params)
		imgs[[2]int64{img[0], img[1]}] = true
	})
	if int64(len(imgs)) != p.CountPoints(params) {
		t.Errorf("images = %d, domain = %d", len(imgs), p.CountPoints(params))
	}
	if got := CountDistinctImages([]*Polyhedron{p}, []*AffineMap{m}, params); got != int64(len(imgs)) {
		t.Errorf("CountDistinctImages = %d, enumerated images = %d", got, len(imgs))
	}
	for pt := range imgs {
		if !(pt[1] < pt[0]) {
			t.Errorf("image %v should satisfy i < j transposed", pt)
		}
	}
}

func TestCountDistinctImagesOverlap(t *testing.T) {
	// Two accesses A[i] and A[i+1] over 0<=i<N touch N+1 distinct cells.
	dom := NewPolyhedron(1, 1)
	dom.AddConstraint([]int64{1, 0, 0})
	dom.AddConstraint([]int64{-1, 1, -1})
	m1 := &AffineMap{NVar: 1, NPar: 1, Rows: [][]int64{{1, 0, 0}}}
	m2 := &AffineMap{NVar: 1, NPar: 1, Rows: [][]int64{{1, 0, 1}}}
	got := CountDistinctImages([]*Polyhedron{dom, dom}, []*AffineMap{m1, m2}, []int64{10})
	if got != 11 {
		t.Errorf("distinct images = %d, want 11", got)
	}
}

func TestProjectKeep(t *testing.T) {
	p := box(3)
	q := p.Project(map[int]bool{1: true})
	if q.NVar != 1 {
		t.Fatalf("projected NVar = %d, want 1", q.NVar)
	}
	if n := q.CountPoints([]int64{3, 4, 5}); n != 4 {
		t.Errorf("projected count = %d, want 4", n)
	}
}

func TestCeilFloorDiv(t *testing.T) {
	cases := []struct{ a, b, ceil, floor int64 }{
		{7, 2, 4, 3}, {-7, 2, -3, -4}, {6, 3, 2, 2}, {-6, 3, -2, -2},
		{0, 5, 0, 0}, {1, 7, 1, 0}, {-1, 7, 0, -1},
	}
	for _, c := range cases {
		if g := ceilDiv(c.a, c.b); g != c.ceil {
			t.Errorf("ceilDiv(%d,%d) = %d, want %d", c.a, c.b, g, c.ceil)
		}
		if g := floorDiv(c.a, c.b); g != c.floor {
			t.Errorf("floorDiv(%d,%d) = %d, want %d", c.a, c.b, g, c.floor)
		}
	}
}

func TestParamExprOps(t *testing.T) {
	e := ParamExpr{Coef: []int64{2, -1}, Const: 3}
	if e.Eval([]int64{5, 4}) != 2*5-4+3 {
		t.Error("Eval wrong")
	}
	o := ParamExpr{Coef: []int64{1, 0}, Const: 1}
	d := e.Sub(o)
	if d.Eval([]int64{5, 4}) != e.Eval([]int64{5, 4})-o.Eval([]int64{5, 4}) {
		t.Error("Sub wrong")
	}
	if !e.Equal(e) || e.Equal(o) {
		t.Error("Equal wrong")
	}
	if e.IsConst() || (ParamExpr{Coef: []int64{0, 0}, Const: 9}).IsConst() == false {
		t.Error("IsConst wrong")
	}
}

// Property: normalize never changes the integer solution set (checked via
// sign preservation on random vectors).
func TestNormalizeProperty(t *testing.T) {
	prop := func(a, b, c int16, x, y int8) bool {
		con := Constraint{V: []int64{int64(a) * 2, int64(b) * 2, int64(c) * 2}}
		before := con.V[0]*int64(x)+con.V[1]*int64(y)+con.V[2] >= 0
		con.normalize()
		after := con.V[0]*int64(x)+con.V[1]*int64(y)+con.V[2] >= 0
		return before == after
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestDedupAndTrivial(t *testing.T) {
	p := NewPolyhedron(1, 0)
	p.AddConstraint([]int64{1, 0})
	p.AddConstraint([]int64{1, 0})
	p.AddConstraint([]int64{0, 5}) // trivially true
	if !p.dedup() {
		t.Fatal("dedup claims infeasible")
	}
	if len(p.Cons) != 1 {
		t.Errorf("constraints after dedup = %d, want 1", len(p.Cons))
	}
	p.AddConstraint([]int64{0, -3}) // trivially false
	if p.dedup() {
		t.Error("dedup should detect trivially-false constraint")
	}
}

// refCountDistinctImages is the original NOrig count — a fresh image slice
// and a fresh key string for every enumerated point — kept as the oracle
// for CountDistinctImages.
func refCountDistinctImages(doms []*Polyhedron, maps []*AffineMap, params []int64) int64 {
	seen := make(map[string]bool)
	for i := range doms {
		dom, m := doms[i], maps[i]
		dom.Enumerate(params, func(pt []int64) {
			seen[refPointKey(refApply(m, pt, params))] = true
		})
	}
	return int64(len(seen))
}

func refApply(m *AffineMap, pt, params []int64) []int64 {
	out := make([]int64, len(m.Rows))
	for d, row := range m.Rows {
		s := row[len(row)-1]
		for i := 0; i < m.NVar; i++ {
			s += row[i] * pt[i]
		}
		for j := 0; j < m.NPar; j++ {
			s += row[m.NVar+j] * params[j]
		}
		out[d] = s
	}
	return out
}

func refPointKey(pt []int64) string {
	b := make([]byte, 0, len(pt)*9)
	for _, v := range pt {
		for k := 0; k < 8; k++ {
			b = append(b, byte(v>>(8*k)))
		}
		b = append(b, ':')
	}
	return string(b)
}

// genImageCase builds a small NOrig input from the choices next makes
// (next(n) returns a value in [0, n)): one to three accesses of one array
// of rank 1–3, each over its own domain of 1–3 variables and 0–2
// parameters, with negative coefficients, possibly empty domains, and
// duplicated (domain, map) pairs.
func genImageCase(next func(n int) int) (doms []*Polyhedron, maps []*AffineMap, params []int64) {
	npar := next(3)
	params = make([]int64, npar)
	for j := range params {
		params[j] = int64(next(5)) - 1 // -1..3
	}
	coef := func() int64 { return int64(next(5)) - 2 } // -2..2
	rank := 1 + next(3)
	for a, nacc := 0, 1+next(3); a < nacc; a++ {
		if a > 0 && next(4) == 0 {
			k := next(a)
			doms, maps = append(doms, doms[k]), append(maps, maps[k])
			continue
		}
		nvar := 1 + next(3)
		dom := NewPolyhedron(nvar, npar)
		w := dom.width()
		for i := 0; i < nvar; i++ {
			lo := make([]int64, w)
			lo[i], lo[w-1] = 1, int64(next(5))-1 // x_i >= 1-c
			dom.AddConstraint(lo)
			hi := make([]int64, w)
			hi[i], hi[w-1] = -1, int64(next(5))-1 // x_i <= c-1 (+ params)
			for j := 0; j < npar; j++ {
				hi[nvar+j] = int64(next(2))
			}
			dom.AddConstraint(hi)
		}
		if next(2) == 0 { // one arbitrary extra constraint
			c := make([]int64, w)
			for k := range c {
				c[k] = coef()
			}
			dom.AddConstraint(c)
		}
		m := &AffineMap{NVar: nvar, NPar: npar, Rows: make([][]int64, rank)}
		for d := range m.Rows {
			m.Rows[d] = make([]int64, w)
			for k := range m.Rows[d] {
				m.Rows[d][k] = coef()
			}
		}
		doms, maps = append(doms, dom), append(maps, m)
	}
	return doms, maps, params
}

func TestCountDistinctImagesMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	nonEmpty := 0
	for trial := 0; trial < 2000; trial++ {
		doms, maps, params := genImageCase(rng.Intn)
		want := refCountDistinctImages(doms, maps, params)
		if got := CountDistinctImages(doms, maps, params); got != want {
			t.Fatalf("trial %d: CountDistinctImages = %d, reference %d (params %v)", trial, got, want, params)
		}
		if want > 0 {
			nonEmpty++
		}
	}
	if nonEmpty < 500 {
		t.Errorf("only %d of 2000 generated cases touch any cell; the generator is too narrow", nonEmpty)
	}
}

func FuzzCountDistinctImages(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 4, 4, 2, 1, 2, 3, 3, 0, 1, 1, 4, 0, 3, 2, 1, 0, 4, 3, 2})
	f.Add([]byte{1, 0, 2, 2, 2, 3, 4, 4, 1, 0, 1, 2, 3, 4, 0, 0, 1, 2, 0, 0, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func(n int) int {
			if len(data) == 0 {
				return 0
			}
			v := int(data[0]) % n
			data = data[1:]
			return v
		}
		doms, maps, params := genImageCase(next)
		if got, want := CountDistinctImages(doms, maps, params), refCountDistinctImages(doms, maps, params); got != want {
			t.Fatalf("CountDistinctImages = %d, reference %d", got, want)
		}
	})
}

// updateClass is the output class of a blocked matrix update: C[i][j] over
// { 0 <= i < P0, 0 <= j < P1, 0 <= k < P2 }, the shape of LU's
// trailing-update tasks. At parameters (32, 32, depth) it touches 1024
// cells whatever the depth, from 1024·depth points.
func updateClass() ([]*Polyhedron, []*AffineMap) {
	dom := box(3)
	m := &AffineMap{NVar: 3, NPar: 3, Rows: [][]int64{
		{1, 0, 0, 0, 0, 0, 0},
		{0, 1, 0, 0, 0, 0, 0},
	}}
	return []*Polyhedron{dom}, []*AffineMap{m}
}

func TestCountDistinctImagesAllocsIndependentOfPoints(t *testing.T) {
	doms, maps := updateClass()
	allocs := func(depth int64) float64 {
		params := []int64{32, 32, depth}
		if got := CountDistinctImages(doms, maps, params); got != 1024 {
			t.Fatalf("depth %d: %d cells, want 1024", depth, got)
		}
		return testing.AllocsPerRun(5, func() { CountDistinctImages(doms, maps, params) })
	}
	// The old count allocated twice per point: 7k more allocations here.
	shallow, deep := allocs(1), allocs(8)
	if deep > shallow+16 {
		t.Errorf("allocations grow with the point count: %v at 1024 points, %v at 8192", shallow, deep)
	}
}

var countSink int64

func BenchmarkCountDistinctImages(b *testing.B) {
	doms, maps := updateClass()
	for _, depth := range []int64{8, 32, 128} {
		params := []int64{32, 32, depth}
		b.Run(fmt.Sprintf("points=%d", 1024*depth), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				countSink = CountDistinctImages(doms, maps, params)
			}
		})
	}
}
