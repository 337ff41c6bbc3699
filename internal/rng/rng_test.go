package rng

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatalf("sources with equal seeds diverged at draw %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds produced %d/100 identical draws", same)
	}
}

func TestChildDeterministic(t *testing.T) {
	a := New(7).Child("x")
	b := New(7).Child("x")
	for i := 0; i < 50; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("children with equal labels diverged")
		}
	}
}

func TestChildrenIndependent(t *testing.T) {
	parent := New(7)
	a := parent.Child("alpha")
	b := parent.Child("beta")
	if a.Seed() == b.Seed() {
		t.Error("distinct labels produced equal child seeds")
	}
	same := 0
	for i := 0; i < 100; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("sibling children produced %d/100 identical draws", same)
	}
}

func TestChildNDistinct(t *testing.T) {
	parent := New(9)
	seen := make(map[uint64]bool)
	for i := 0; i < 100; i++ {
		s := parent.ChildN("rep", i).Seed()
		if seen[s] {
			t.Fatalf("duplicate child seed at index %d", i)
		}
		seen[s] = true
	}
}

func TestChildDoesNotConsumeParentStream(t *testing.T) {
	a := New(11)
	b := New(11)
	_ = a.Child("side")
	for i := 0; i < 10; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("deriving a child perturbed the parent stream")
		}
	}
}

func TestBernoulli(t *testing.T) {
	src := New(1)
	if src.Bernoulli(0) {
		t.Error("Bernoulli(0) returned true")
	}
	if !src.Bernoulli(1) {
		t.Error("Bernoulli(1) returned false")
	}
	if src.Bernoulli(-0.5) {
		t.Error("Bernoulli(-0.5) returned true")
	}
	if !src.Bernoulli(1.5) {
		t.Error("Bernoulli(1.5) returned false")
	}
	n := 200000
	hits := 0
	for i := 0; i < n; i++ {
		if src.Bernoulli(0.3) {
			hits++
		}
	}
	p := float64(hits) / float64(n)
	if math.Abs(p-0.3) > 0.01 {
		t.Errorf("Bernoulli(0.3) frequency %v", p)
	}
}

func TestUniformInt(t *testing.T) {
	src := New(2)
	seen := make(map[int64]int)
	for i := 0; i < 60000; i++ {
		v := src.UniformInt(1, 6)
		if v < 1 || v > 6 {
			t.Fatalf("UniformInt out of range: %d", v)
		}
		seen[v]++
	}
	for v := int64(1); v <= 6; v++ {
		freq := float64(seen[v]) / 60000
		if math.Abs(freq-1.0/6) > 0.02 {
			t.Errorf("value %d frequency %v, want ~1/6", v, freq)
		}
	}
	if got := src.UniformInt(5, 5); got != 5 {
		t.Errorf("UniformInt(5,5) = %d", got)
	}
}

func TestUniformIntPanicsOnBadRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("UniformInt(hi<lo) did not panic")
		}
	}()
	New(1).UniformInt(3, 2)
}

func TestGeometricEdgeCases(t *testing.T) {
	src := New(3)
	if got := src.Geometric(1); got != 0 {
		t.Errorf("Geometric(1) = %d, want 0", got)
	}
	if got := src.Geometric(1.5); got != 0 {
		t.Errorf("Geometric(1.5) = %d, want 0", got)
	}
	if got := src.Geometric(0); got != 1<<40 {
		t.Errorf("Geometric(0) = %d, want cap", got)
	}
	if got := src.Geometric(-0.1); got != 1<<40 {
		t.Errorf("Geometric(-0.1) = %d, want cap", got)
	}
}

func TestGeometricMean(t *testing.T) {
	// E[Geometric(p)] = (1-p)/p for the failures-before-success form.
	for _, p := range []float64{0.1, 0.3, 0.5, 0.9} {
		src := New(uint64(p * 1000))
		n := 100000
		var sum float64
		for i := 0; i < n; i++ {
			sum += float64(src.Geometric(p))
		}
		mean := sum / float64(n)
		want := (1 - p) / p
		if math.Abs(mean-want) > 0.05*math.Max(1, want) {
			t.Errorf("Geometric(%v) mean %v, want ~%v", p, mean, want)
		}
	}
}

func TestGeometricMatchesBernoulliRuns(t *testing.T) {
	// The geometric sampler must reproduce the distribution of run lengths
	// of i.i.d. Bernoulli slots: P(G = 0) = p.
	src := New(4)
	p := 0.4
	n := 100000
	zero := 0
	for i := 0; i < n; i++ {
		if src.Geometric(p) == 0 {
			zero++
		}
	}
	freq := float64(zero) / float64(n)
	if math.Abs(freq-p) > 0.01 {
		t.Errorf("P(G=0) = %v, want ~%v", freq, p)
	}
}

// TestGeometricMemoAlternating drives one source the way a PU activity
// process does — alternating Geometric(p) and Geometric(1-p), with an
// occasional third probability evicting a memo entry — and requires every
// sample to equal the inverse transform recomputed from scratch (a fresh
// ln(q) per draw) on an identically seeded twin stream.
func TestGeometricMemoAlternating(t *testing.T) {
	const seed = 11
	src, twin := New(seed), New(seed)
	for _, pt := range []float64{0.1, 0.3, 0.5, 0.9} {
		for i := 0; i < 2000; i++ {
			p := pt
			switch {
			case i%97 == 0:
				p = 0.77
			case i%2 == 1:
				p = 1 - pt
			}
			got := src.Geometric(p)
			u := twin.Float64()
			for u == 0 {
				u = twin.Float64()
			}
			want := max(int64(logQuotient(u, 1-p)), 0)
			if got != want {
				t.Fatalf("p_t=%v draw %d: Geometric(%v) = %d, fresh transform gives %d", pt, i, p, got, want)
			}
		}
	}
}

func TestPerm(t *testing.T) {
	src := New(5)
	perm := src.Perm(10)
	if len(perm) != 10 {
		t.Fatalf("Perm length %d", len(perm))
	}
	seen := make([]bool, 10)
	for _, v := range perm {
		if v < 0 || v >= 10 || seen[v] {
			t.Fatalf("invalid permutation %v", perm)
		}
		seen[v] = true
	}
}

func TestIntnAndInt63n(t *testing.T) {
	src := New(6)
	for i := 0; i < 1000; i++ {
		if v := src.Intn(7); v < 0 || v >= 7 {
			t.Fatalf("Intn out of range: %d", v)
		}
		if v := src.Int63n(9); v < 0 || v >= 9 {
			t.Fatalf("Int63n out of range: %d", v)
		}
	}
}

func TestLogQuotient(t *testing.T) {
	// ln(0.25)/ln(0.5) = 2.
	if got := logQuotient(0.25, 0.5); math.Abs(got-2) > 1e-12 {
		t.Errorf("logQuotient(0.25, 0.5) = %v, want 2", got)
	}
}

func TestMixAvalanche(t *testing.T) {
	// Flipping one input bit should change roughly half the output bits.
	base := mix(12345, 67890)
	diffBits := 0
	for bit := 0; bit < 64; bit++ {
		out := mix(12345^(1<<uint(bit)), 67890)
		x := base ^ out
		for ; x != 0; x &= x - 1 {
			diffBits++
		}
	}
	avg := float64(diffBits) / 64
	if avg < 20 || avg > 44 {
		t.Errorf("avalanche average %v bits, want ~32", avg)
	}
}
