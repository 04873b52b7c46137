package rng

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("step %d: same seed diverged: %d != %d", i, av, bv)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/100 identical outputs", same)
	}
}

func TestZeroSeedUsable(t *testing.T) {
	r := New(0)
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		t.Fatal("seed 0 left generator in forbidden all-zero state")
	}
	// Output should still look non-degenerate.
	var or uint64
	for i := 0; i < 16; i++ {
		or |= r.Uint64()
	}
	if or == 0 {
		t.Fatal("seed 0 produces all-zero output")
	}
}

func TestSplitDecorrelated(t *testing.T) {
	parent := New(7)
	child := parent.Split()
	same := 0
	for i := 0; i < 100; i++ {
		if parent.Uint64() == child.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("split stream tracks parent: %d/100 identical", same)
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(11)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestIntnRange(t *testing.T) {
	r := New(5)
	counts := make([]int, 7)
	const n = 70000
	for i := 0; i < n; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) out of range: %d", v)
		}
		counts[v]++
	}
	for v, c := range counts {
		if c < n/7-800 || c > n/7+800 {
			t.Fatalf("Intn(7) value %d count %d far from uniform %d", v, c, n/7)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestUint64nOne(t *testing.T) {
	r := New(9)
	for i := 0; i < 100; i++ {
		if v := r.Uint64n(1); v != 0 {
			t.Fatalf("Uint64n(1) = %d, want 0", v)
		}
	}
}

func TestBernoulliEdges(t *testing.T) {
	r := New(1)
	for i := 0; i < 100; i++ {
		if r.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !r.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
		if r.Bernoulli(-0.5) {
			t.Fatal("Bernoulli(-0.5) returned true")
		}
		if !r.Bernoulli(1.5) {
			t.Fatal("Bernoulli(1.5) returned false")
		}
	}
}

func TestBernoulliMean(t *testing.T) {
	r := New(2)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if r.Bernoulli(0.3) {
			hits++
		}
	}
	got := float64(hits) / n
	if math.Abs(got-0.3) > 0.01 {
		t.Fatalf("Bernoulli(0.3) frequency = %v", got)
	}
}

func TestGeometricMean(t *testing.T) {
	// E[Geometric(p)] = (1-p)/p.
	for _, p := range []float64{0.1, 0.5, 0.9} {
		r := New(uint64(p * 1000))
		const n = 100000
		var sum float64
		for i := 0; i < n; i++ {
			sum += float64(r.Geometric(p))
		}
		want := (1 - p) / p
		got := sum / n
		if math.Abs(got-want) > 0.05*math.Max(want, 0.2) {
			t.Fatalf("Geometric(%v) mean = %v, want %v", p, got, want)
		}
	}
}

func TestGeometricOne(t *testing.T) {
	r := New(1)
	for i := 0; i < 100; i++ {
		if g := r.Geometric(1); g != 0 {
			t.Fatalf("Geometric(1) = %d, want 0", g)
		}
	}
}

func TestGeometricPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Geometric(0) did not panic")
		}
	}()
	New(1).Geometric(0)
}

func TestBinomialMoments(t *testing.T) {
	cases := []struct {
		n int64
		p float64
	}{
		{10, 0.5}, {100, 0.1}, {100, 0.9}, {1000, 0.01}, {7, 0.3},
	}
	for _, c := range cases {
		r := New(uint64(c.n)*31 + uint64(c.p*97))
		const trials = 30000
		var sum, sumsq float64
		for i := 0; i < trials; i++ {
			v := float64(r.Binomial(c.n, c.p))
			if v < 0 || v > float64(c.n) {
				t.Fatalf("Binomial(%d,%v) out of range: %v", c.n, c.p, v)
			}
			sum += v
			sumsq += v * v
		}
		mean := sum / trials
		wantMean := float64(c.n) * c.p
		variance := sumsq/trials - mean*mean
		wantVar := float64(c.n) * c.p * (1 - c.p)
		if math.Abs(mean-wantMean) > 0.05*wantMean+0.1 {
			t.Errorf("Binomial(%d,%v) mean = %v, want %v", c.n, c.p, mean, wantMean)
		}
		if math.Abs(variance-wantVar) > 0.1*wantVar+0.2 {
			t.Errorf("Binomial(%d,%v) var = %v, want %v", c.n, c.p, variance, wantVar)
		}
	}
}

func TestBinomialEdges(t *testing.T) {
	r := New(4)
	if v := r.Binomial(0, 0.5); v != 0 {
		t.Fatalf("Binomial(0, .5) = %d", v)
	}
	if v := r.Binomial(10, 0); v != 0 {
		t.Fatalf("Binomial(10, 0) = %d", v)
	}
	if v := r.Binomial(10, 1); v != 10 {
		t.Fatalf("Binomial(10, 1) = %d", v)
	}
}

func TestPoissonMean(t *testing.T) {
	for _, lambda := range []float64{0.5, 5, 80} {
		r := New(uint64(lambda * 13))
		const n = 50000
		var sum float64
		for i := 0; i < n; i++ {
			sum += float64(r.Poisson(lambda))
		}
		got := sum / n
		if math.Abs(got-lambda) > 0.05*lambda+0.05 {
			t.Fatalf("Poisson(%v) mean = %v", lambda, got)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(6)
	for _, n := range []int{0, 1, 2, 10, 100} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) invalid: %v", n, p)
			}
			seen[v] = true
		}
	}
}

func TestSampleIndicesProperties(t *testing.T) {
	r := New(8)
	f := func(seed uint64, n16 uint16, pRaw uint16) bool {
		n := int(n16 % 500)
		p := float64(pRaw) / 65535
		rr := New(seed)
		got := rr.SampleIndices(nil, n, p)
		prev := -1
		for _, idx := range got {
			if idx <= prev || idx >= n {
				return false
			}
			prev = idx
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: nil}); err != nil {
		t.Fatal(err)
	}
	// Mean check.
	const n, p, trials = 1000, 0.05, 2000
	total := 0
	for i := 0; i < trials; i++ {
		total += len(r.SampleIndices(nil, n, p))
	}
	mean := float64(total) / trials
	if math.Abs(mean-n*p) > 3 {
		t.Fatalf("SampleIndices mean %v, want %v", mean, n*p)
	}
}

// TestSampleIndicesMatchesGeometricSkips pins SampleIndices (and
// Binomial) to the chained Geometric skips they are defined by: the same
// indices from a same-seed stream, and the streams left in the same
// state.  Computing ln(1-p) once per call must not move a single draw.
func TestSampleIndicesMatchesGeometricSkips(t *testing.T) {
	for _, p := range []float64{1e-6, 1 / math.Sqrt(64), 0.5, 0.999} {
		for _, n := range []int{1, 1000, 1 << 20} {
			for seed := uint64(1); seed <= 3; seed++ {
				ref := New(seed)
				var want []int
				for i := ref.Geometric(p); i < int64(n); i += 1 + ref.Geometric(p) {
					want = append(want, int(i))
				}
				r := New(seed)
				got := r.SampleIndices(nil, n, p)
				if !slices.Equal(got, want) {
					t.Fatalf("p=%v n=%d seed=%d: SampleIndices picked %d indices, chained skips %d (or different ones)",
						p, n, seed, len(got), len(want))
				}
				if r.Uint64() != ref.Uint64() {
					t.Fatalf("p=%v n=%d seed=%d: streams diverged after the draw", p, n, seed)
				}

				q := min(p, 1-p) // Binomial skips over the rarer outcome
				ref, r = New(seed), New(seed)
				var k int64
				for i := ref.Geometric(q); i < int64(n); i += 1 + ref.Geometric(q) {
					k++
				}
				if q != p {
					k = int64(n) - k
				}
				if b := r.Binomial(int64(n), p); b != k || r.Uint64() != ref.Uint64() {
					t.Fatalf("p=%v n=%d seed=%d: Binomial = %d, chained skips count %d", p, n, seed, b, k)
				}
			}
		}
	}
}

func TestSampleIndicesEdges(t *testing.T) {
	r := New(10)
	if got := r.SampleIndices(nil, 10, 0); len(got) != 0 {
		t.Fatalf("p=0 selected %v", got)
	}
	got := r.SampleIndices(nil, 5, 1)
	if len(got) != 5 {
		t.Fatalf("p=1 selected %v", got)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("p=1 selected %v", got)
		}
	}
}

func TestExpFloat64Mean(t *testing.T) {
	r := New(12)
	const n = 100000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.ExpFloat64()
	}
	if mean := sum / n; math.Abs(mean-1) > 0.02 {
		t.Fatalf("ExpFloat64 mean %v", mean)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(13)
	const n = 200000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("NormFloat64 mean %v", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Fatalf("NormFloat64 variance %v", variance)
	}
}

func TestMul128(t *testing.T) {
	cases := []struct {
		a, b, hi, lo uint64
	}{
		{0, 0, 0, 0},
		{1, 1, 0, 1},
		{math.MaxUint64, 2, 1, math.MaxUint64 - 1},
		{1 << 32, 1 << 32, 1, 0},
		{math.MaxUint64, math.MaxUint64, math.MaxUint64 - 1, 1},
	}
	for _, c := range cases {
		hi, lo := mul128(c.a, c.b)
		if hi != c.hi || lo != c.lo {
			t.Fatalf("mul128(%d,%d) = (%d,%d), want (%d,%d)", c.a, c.b, hi, lo, c.hi, c.lo)
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkBinomialLargeN(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Binomial(1_000_000, 1e-4)
	}
}

func BenchmarkSampleIndices(b *testing.B) {
	r := New(1)
	buf := make([]int, 0, 128)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = r.SampleIndices(buf[:0], 100000, 1e-3)
	}
}
