package textsim

import (
	"math"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"flock/internal/randx"
)

func TestTokenize(t *testing.T) {
	got := Tokenize("Hello, World! Check https://mastodon.social/@alice. #TwitterMigration @bob@example.com")
	join := strings.Join(got, "|")
	for _, want := range []string{"hello", "world", "https://mastodon.social/@alice", "#twittermigration", "@bob@example"} {
		if !strings.Contains(join, want) {
			t.Fatalf("tokens %v missing %q", got, want)
		}
	}
}

func TestTokenizeEmpty(t *testing.T) {
	if toks := Tokenize("   \n\t "); len(toks) != 0 {
		t.Fatalf("tokens of whitespace: %v", toks)
	}
}

func TestEmbedNormalized(t *testing.T) {
	v := Embed("the quick brown fox jumps over the lazy dog")
	var norm float64
	for _, x := range v {
		norm += float64(x) * float64(x)
	}
	if math.Abs(norm-1) > 1e-5 {
		t.Fatalf("norm = %v", norm)
	}
}

func TestEmbedEmptyIsZero(t *testing.T) {
	v := Embed("")
	for _, x := range v {
		if x != 0 {
			t.Fatal("empty text embedding not zero")
		}
	}
	if Cosine(v, v) != 0 {
		t.Fatal("zero-vector cosine should be 0")
	}
}

func TestSelfSimilarityIsOne(t *testing.T) {
	texts := []string{
		"Leaving the birdsite for good, find me at @alice@mastodon.social #TwitterMigration",
		"just posted a new blog about decentralized moderation",
	}
	for _, txt := range texts {
		if s := Similarity(txt, txt); math.Abs(s-1) > 1e-5 {
			t.Fatalf("self similarity = %v", s)
		}
	}
}

func TestNearDuplicateScoresHigh(t *testing.T) {
	a := "So excited to announce my new project on decentralized social networks, check it out!"
	b := "So excited to announce my new project on decentralized social networks, check it out"
	if s := Similarity(a, b); s < 0.9 {
		t.Fatalf("near-duplicate similarity = %v", s)
	}
	c := "Very excited to announce my brand new project on decentralized social networks today"
	if s := Similarity(a, c); s < DefaultThreshold {
		t.Fatalf("paraphrase similarity = %v, want >= %v", s, DefaultThreshold)
	}
}

func TestUnrelatedScoresLow(t *testing.T) {
	a := "Watching the football game tonight with friends at the pub"
	b := "New paper on quantum error correction published in Nature this morning"
	if s := Similarity(a, b); s > 0.35 {
		t.Fatalf("unrelated similarity = %v, want low", s)
	}
}

func TestCosineSymmetricProperty(t *testing.T) {
	f := func(a, b string) bool {
		s1 := Similarity(a, b)
		s2 := Similarity(b, a)
		return math.Abs(s1-s2) < 1e-9 && s1 >= -1 && s1 <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestIdentical(t *testing.T) {
	if !Identical("same post", "same post") {
		t.Fatal("exact match not identical")
	}
	if !Identical("truncated by bridge…", "truncated by bridge") {
		t.Fatal("ellipsis canonicalization failed")
	}
	if !Identical("  padded  ", "padded") {
		t.Fatal("whitespace canonicalization failed")
	}
	if Identical("a", "b") {
		t.Fatal("different texts identical")
	}
}

func TestClassify(t *testing.T) {
	tweet := "Excited to share our new measurement study of the fediverse migration!"
	if c := Classify(tweet, tweet, DefaultThreshold); c != IdenticalClass {
		t.Fatalf("class = %v", c)
	}
	para := "Excited to share our brand new measurement study of the big fediverse migration"
	if c := Classify(para, tweet, DefaultThreshold); c != Similar {
		t.Fatalf("paraphrase class = %v (sim=%v)", c, Similarity(para, tweet))
	}
	other := "Good morning everyone, coffee time"
	if c := Classify(other, tweet, DefaultThreshold); c != Different {
		t.Fatalf("unrelated class = %v", c)
	}
}

func TestClassifyThresholdSweep(t *testing.T) {
	a := "the migration to mastodon is accelerating rapidly this month"
	b := "the migration to mastodon is accelerating very rapidly"
	s := Similarity(a, b)
	if Classify(a, b, s+0.01) != Different {
		t.Fatal("above-similarity threshold should classify Different")
	}
	if Classify(a, b, s-0.01) != Similar {
		t.Fatal("below-similarity threshold should classify Similar")
	}
}

func TestIndexBestMatch(t *testing.T) {
	texts := []string{
		"announcing my move to mastodon, follow me there",
		"what a goal in the match tonight",
		"new photos from my trip to iceland",
	}
	ix := NewIndex(texts)
	q := Embed("announcing my big move to mastodon, please follow me there")
	i, sim := ix.BestMatch(q)
	if i != 0 {
		t.Fatalf("best match index = %d (sim %v)", i, sim)
	}
	if sim < DefaultThreshold {
		t.Fatalf("best match sim = %v", sim)
	}
}

func TestIndexEmpty(t *testing.T) {
	ix := NewIndex(nil)
	if i, s := ix.BestMatch(Embed("x")); i != -1 || s != 0 {
		t.Fatalf("empty index match = %d, %v", i, s)
	}
}

func TestDeterministicEmbedding(t *testing.T) {
	a := Embed("determinism matters for reproduction")
	b := Embed("determinism matters for reproduction")
	if a != b {
		t.Fatal("embedding not deterministic")
	}
}

func TestIndexSingleElement(t *testing.T) {
	ix := NewIndex([]string{"only one post here"})
	i, s := ix.BestMatch(Embed("only one post here"))
	if i != 0 || math.Abs(s-1) > 1e-5 {
		t.Fatalf("single-element match = %d, %v", i, s)
	}
	// Even a zero-vector query must land on index 0 (the only candidate).
	if i, s := ix.BestMatch(Embed("")); i != 0 || s != 0 {
		t.Fatalf("zero query against single element = %d, %v", i, s)
	}
}

func TestIndexAllZeroVectors(t *testing.T) {
	// Texts with no tokens embed to the zero vector; every cosine is 0
	// and the lowest index must win.
	ix := NewIndex([]string{"", "   ", "\t\n"})
	i, s := ix.BestMatch(Embed("anything at all"))
	if i != 0 || s != 0 {
		t.Fatalf("all-zero index match = %d, %v", i, s)
	}
}

func TestBestMatchTieBreaksLowestIndex(t *testing.T) {
	// Duplicate texts give exactly equal cosines; the lowest index must
	// be picked.
	texts := []string{
		"completely unrelated filler words",
		"announcing my move to mastodon today",
		"announcing my move to mastodon today",
		"announcing my move to mastodon today",
	}
	ix := NewIndex(texts)
	q := Embed("announcing my move to mastodon today")
	if i, s := ix.BestMatch(q); i != 1 {
		t.Fatalf("tie-break picked %d (sim %v)", i, s)
	}
}

// refBestMatch is the unblocked reference scan: Cosine on every
// candidate in ascending index, keeping the first strict maximum.
func refBestMatch(ix *Index, q Vector) (int, float64) {
	best, bestSim := -1, math.Inf(-1)
	for i := range ix.Vectors {
		if s := Cosine(q, ix.Vectors[i]); s > bestSim {
			best, bestSim = i, s
		}
	}
	if best < 0 {
		return -1, 0
	}
	return best, bestSim
}

// TestBestMatchBitIdentical checks the blocked BestMatch kernel against
// the reference scan, comparing the winning index and the similarity's
// bits. Index sizes 0-13 cover every block tail; the candidate pools
// mix real embeddings (with duplicates placed at varying offsets), zero
// vectors, the query itself (self-cosine drifts past 1 and exercises the
// clamp), its negation, and unnormalized vectors whose dots clamp to
// ±1 and so tie at the bound.
func TestBestMatchBitIdentical(t *testing.T) {
	words := strings.Fields("mastodon twitter migration fediverse instance toot tweet follow " +
		"bridge crosspost moderation server account handle decentralized birdsite")
	rng := randx.New(14)
	text := func() string {
		n := 1 + rng.Intn(12)
		ws := make([]string, n)
		for i := range ws {
			ws[i] = words[rng.Intn(len(words))]
		}
		return strings.Join(ws, " ")
	}
	var big, neg Vector
	for k := range big {
		big[k] = float32(rng.NormFloat64())
	}
	for trial := 0; trial < 300; trial++ {
		q := Embed(text())
		if trial%10 == 0 {
			q = Vector{}
		}
		for k := range neg {
			neg[k] = -q[k]
		}
		pool := []Vector{q, neg, big, {}, Embed(text()), Embed(text())}
		for n := 0; n <= 13; n++ {
			ix := &Index{Vectors: make([]Vector, n)}
			for i := range ix.Vectors {
				if rng.Bool(0.5) {
					ix.Vectors[i] = pool[rng.Intn(len(pool))]
				} else {
					ix.Vectors[i] = Embed(text())
				}
			}
			gi, gs := ix.BestMatch(q)
			wi, ws := refBestMatch(ix, q)
			if gi != wi || math.Float64bits(gs) != math.Float64bits(ws) {
				t.Fatalf("trial %d n=%d: BestMatch = (%d, %v), reference = (%d, %v)", trial, n, gi, gs, wi, ws)
			}
		}
	}
}

func TestCacheEmbedMatchesDirect(t *testing.T) {
	c := NewCache()
	texts := []string{
		"Leaving the birdsite, find me at @a@mastodon.social",
		"Leaving the birdsite, find me at @a@mastodon.social",    // repeat
		"  Leaving the birdsite, find me at @a@mastodon.social…", // canonicalizes to the first
		"something else entirely",
		"",
	}
	for _, txt := range texts {
		if got, want := c.Embed(txt), Embed(txt); got != want {
			t.Fatalf("cache embedding differs for %q", txt)
		}
	}
	// The first three share a canonical form; with the empty string and
	// the distinct text that makes 3 entries.
	if c.Len() != 3 {
		t.Fatalf("cache size = %d, want 3", c.Len())
	}
	var nilCache *Cache
	if got, want := nilCache.Embed("nil cache path"), Embed("nil cache path"); got != want {
		t.Fatal("nil cache embedding differs")
	}
	if nilCache.Len() != 0 {
		t.Fatal("nil cache length")
	}
}

func TestNewIndexParallelMatchesSerial(t *testing.T) {
	texts := []string{"alpha beta", "gamma delta", "epsilon"}
	a := NewIndex(texts)
	b := NewIndexParallel(texts, 4, NewCache())
	for i := range a.Vectors {
		if a.Vectors[i] != b.Vectors[i] {
			t.Fatalf("vector %d differs", i)
		}
	}
}

func BenchmarkEmbed(b *testing.B) {
	text := "Leaving Twitter after 12 years. You can find me at @user@mastodon.social — let's build the fediverse together! #TwitterMigration #Mastodon"
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Embed(text)
	}
}

func BenchmarkEmbedCached(b *testing.B) {
	text := "Leaving Twitter after 12 years. You can find me at @user@mastodon.social — let's build the fediverse together! #TwitterMigration #Mastodon"
	c := NewCache()
	c.Embed(text)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Embed(text)
	}
}

// BenchmarkBestMatch scans one Fig. 14 query against an index of 178
// tweets, the mean Twitter timeline length of a 1000-migrant world.
func BenchmarkBestMatch(b *testing.B) {
	texts := make([]string, 178)
	for i := range texts {
		texts[i] = "post " + strconv.Itoa(i) + " about the migration to mastodon and the fediverse"
	}
	ix := NewIndex(texts)
	q := Embed("a status about the migration to mastodon")
	b.ReportAllocs()
	for b.Loop() {
		ix.BestMatch(q)
	}
}

func BenchmarkCosine(b *testing.B) {
	x := Embed("some example post about the migration")
	y := Embed("another example post about the migration")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Cosine(x, y)
	}
}
