package fleet

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"solarsched/internal/rng"
	"solarsched/internal/sim"
	"solarsched/internal/solar"
	"solarsched/internal/supercap"
	"solarsched/internal/task"
)

// The golden constants below were produced by this very code; the tests
// pin them so any change to the canonical serialization — field order, a
// renamed struct field, a different float encoding — fails loudly. Keys
// must be stable across processes and across releases, or CI's golden
// aggregate digests (and any on-disk cache a future PR adds) silently
// rot.
const (
	goldenDemoKey    = "demo:f450085ada204a7c824487e7550982f6fd1921667dc0ada7c58f33bbc160c0a4"
	goldenTraceHex   = "0557ef3461842b7cbbeaecbaef613ea63ce1b55052f8de397a1fc07ca8b81991"
	goldenECGGraph   = "403f5fb2036624a108cbc6145df88e80b6d121853ebac7babb4c202434bfec06"
	goldenHexLen     = 64
	goldenKeyPattern = "demo:"
)

func TestArtifactKeyGolden(t *testing.T) {
	k := artifactKey("demo", struct {
		A int
		B string
	}{7, "x"})
	if k != goldenDemoKey {
		t.Fatalf("artifactKey changed:\n got %s\nwant %s", k, goldenDemoKey)
	}
	if !strings.HasPrefix(k, goldenKeyPattern) {
		t.Fatalf("key %q lost its kind prefix", k)
	}
}

func TestTraceDigestGolden(t *testing.T) {
	tr := solar.RepresentativeDays(solar.DefaultTimeBase(4))
	d := TraceDigest(tr)
	if d != goldenTraceHex {
		t.Fatalf("TraceDigest changed:\n got %s\nwant %s", d, goldenTraceHex)
	}
	if len(d) != goldenHexLen {
		t.Fatalf("digest length %d, want %d", len(d), goldenHexLen)
	}
}

func TestGraphDigestGolden(t *testing.T) {
	if d := GraphDigest(task.ECG()); d != goldenECGGraph {
		t.Fatalf("GraphDigest changed:\n got %s\nwant %s", d, goldenECGGraph)
	}
}

// TestTraceDigestSensitivity: the digest must see every slot — flipping
// one power value anywhere must change it.
func TestTraceDigestSensitivity(t *testing.T) {
	a := solar.RepresentativeDays(solar.DefaultTimeBase(4))
	b := solar.RepresentativeDays(solar.DefaultTimeBase(4))
	before := TraceDigest(b)
	b.Power[len(b.Power)/2] += 1e-12
	if TraceDigest(b) == before {
		t.Fatal("digest blind to a power perturbation")
	}
	if TraceDigest(a) != before {
		t.Fatal("digest not deterministic for equal traces")
	}
}

// TestArtifactKeyDistinguishesKinds: the same parts under different kinds
// must produce different keys — a sizing result must never be mistaken
// for a plan.
func TestArtifactKeyDistinguishesKinds(t *testing.T) {
	p := struct{ X int }{1}
	if artifactKey("sizing", p) == artifactKey("plan", p) {
		t.Fatal("kind not part of the key")
	}
	// And parts must not be concatenation-ambiguous with the kind.
	if artifactKey("ab", "c") == artifactKey("a", "bc") {
		t.Fatal("kind/part boundary ambiguous")
	}
}

func TestGraphDigestDistinguishesBenchmarks(t *testing.T) {
	seen := map[string]string{}
	for _, g := range task.AllBenchmarks() {
		d := GraphDigest(g)
		if prev, dup := seen[d]; dup {
			t.Fatalf("benchmarks %s and %s collide on %s", prev, g.Name, d)
		}
		seen[d] = g.Name
	}
}

// traceDigestPerSlot is TraceDigest as first written: one 8-byte Write per
// slot. The block-wise digest must hash the same byte stream.
func traceDigestPerSlot(tr *solar.Trace) string {
	h := sha256.New()
	b, err := json.Marshal(tr.Base)
	if err != nil {
		panic(err)
	}
	h.Write(b)
	h.Write([]byte{'\n'})
	var buf [8]byte
	for _, p := range tr.Power {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(p))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestTraceDigestMatchesPerSlotReference(t *testing.T) {
	var traces []*solar.Trace
	for _, days := range []int{1, 2, 5} {
		tr, err := solar.Generate(solar.GenConfig{Base: solar.DefaultTimeBase(days), Seed: 31, DayOfYearStart: 150})
		if err != nil {
			t.Fatal(err)
		}
		traces = append(traces, tr)
	}
	// Slot counts around the block: one short of it, exactly it, one past
	// it, and none at all.
	src := rng.New(5)
	for _, slots := range []int{traceDigestBlock/8 - 1, traceDigestBlock / 8, traceDigestBlock/8 + 1, 3*traceDigestBlock/8 + 7} {
		tr := solar.NewTrace(solar.TimeBase{Days: 1, PeriodsPerDay: 1, SlotsPerPeriod: slots, SlotSeconds: 60})
		for i := range tr.Power {
			tr.Power[i] = src.Range(0, 0.1)
		}
		traces = append(traces, tr)
	}
	traces = append(traces, &solar.Trace{Base: solar.DefaultTimeBase(1)})
	for _, tr := range traces {
		if got, want := TraceDigest(tr), traceDigestPerSlot(tr); got != want {
			t.Errorf("%d slots: TraceDigest = %s, per-slot reference %s", len(tr.Power), got, want)
		}
	}
}

// TestCacheTraceDigestMemo checks the digest memo of cache-owned traces:
// a caller's own trace with the same contents resolves to the same
// artifacts, and a mutated copy of a cached trace to its own.
func TestCacheTraceDigestMemo(t *testing.T) {
	ctx := context.Background()
	c := NewCache(nil)
	cfg := solar.GenConfig{Base: solar.DefaultTimeBase(2), Seed: 9001, DayOfYearStart: 100}
	cached, err := c.Trace(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	own, err := solar.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if own == cached {
		t.Fatal("generated trace is the cached one")
	}
	if got, want := c.traceDigest(cached), TraceDigest(own); got != want {
		t.Fatalf("memoized digest %s, want %s", got, want)
	}
	if _, memo := c.traceDigests.Load(own); memo {
		t.Fatal("a trace the cache never handed out is memoized")
	}

	g := task.WAM()
	p := supercap.DefaultParams()
	_, before := c.Stats()
	if _, err := c.Sizing(ctx, cached, g, 2, p, sim.DefaultDirectEff); err != nil {
		t.Fatal(err)
	}
	hits, misses := c.Stats()
	cold := misses - before // sizing and the patterns it reads
	if _, err := c.Sizing(ctx, own, g, 2, p, sim.DefaultDirectEff); err != nil {
		t.Fatal(err)
	}
	if h, m := c.Stats(); h != hits+1 || m != misses {
		t.Fatalf("sizing an equal uncached trace: %d hits, %d misses; want %d, %d", h, m, hits+1, misses)
	}

	mutated := &solar.Trace{Base: cached.Base, Power: append([]float64(nil), cached.Power...)}
	mutated.Power[len(mutated.Power)/2] += 1e-3
	if c.traceDigest(mutated) == c.traceDigest(cached) {
		t.Fatal("a mutated copy of a cached trace shares its digest")
	}
	if _, err := c.Sizing(ctx, mutated, g, 2, p, sim.DefaultDirectEff); err != nil {
		t.Fatal(err)
	}
	if h, m := c.Stats(); h != hits+1 || m != misses+cold {
		t.Fatalf("sizing a mutated copy: %d hits, %d misses; want %d, %d", h, m, hits+1, misses+cold)
	}
}
