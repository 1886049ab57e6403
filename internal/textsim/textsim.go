// Package textsim measures content similarity between posts.
//
// The paper (§6.1) declares a Mastodon status "similar" to a tweet when
// the cosine similarity of their SBERT sentence embeddings exceeds 0.7,
// and "identical" when the texts match exactly. SBERT is a closed,
// non-Go ML dependency, so textsim substitutes a deterministic hashed
// n-gram embedding: texts are tokenized, word unigrams/bigrams and
// character trigrams are feature-hashed into a fixed-size vector, and
// similarity is the cosine of those vectors.
//
// The substitution preserves the only property the analysis relies on:
// near-duplicate texts (cross-posted content, light edits, re-phrasings
// sharing most tokens) score high, and independent texts score low. The
// absolute scale differs from SBERT, so the default threshold is
// recalibrated (see DefaultThreshold) rather than copied blindly.
package textsim

import (
	"math"
	"strings"
	"sync"
	"unicode"
	"unicode/utf8"

	"flock/internal/parallel"
)

// Dim is the embedding dimensionality. 256 buckets keeps vectors small
// while making random collisions rare for post-length texts.
const Dim = 256

// DefaultThreshold is the cosine above which two posts count as
// "similar". The paper uses 0.7 on SBERT embeddings; hashed n-gram
// cosines for paraphrases land in a comparable band, so we keep 0.7.
const DefaultThreshold = 0.7

// Vector is an embedding.
type Vector [Dim]float32

// span is one token's byte range inside a scratch buffer.
type span struct{ lo, hi int32 }

// scratch holds the tokenizer's reusable working set: all tokens of one
// text, lowercased, packed back to back in buf with their spans. Pooled
// so the Embed hot path performs no per-token allocations.
type scratch struct {
	buf   []byte
	spans []span
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

func (s *scratch) reset() {
	s.buf = s.buf[:0]
	s.spans = s.spans[:0]
}

// endToken closes the token started at byte offset start, dropping empty
// tokens.
func (s *scratch) endToken(start int) {
	if len(s.buf) > start {
		s.spans = append(s.spans, span{int32(start), int32(len(s.buf))})
	}
}

// token returns the i-th token's bytes.
func (s *scratch) token(i int) []byte {
	sp := s.spans[i]
	return s.buf[sp.lo:sp.hi]
}

// urlTrimSet is the trailing punctuation stripped from URL tokens.
const urlTrimSet = ".,;:!?)"

// hasPrefixFold reports whether s starts with prefix under ASCII case
// folding (prefix must be lowercase ASCII).
func hasPrefixFold(s, prefix string) bool {
	if len(s) < len(prefix) {
		return false
	}
	for i := 0; i < len(prefix); i++ {
		c := s[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != prefix[i] {
			return false
		}
	}
	return true
}

// tokenize splits text into the scratch buffer: fields are lowercased
// rune by rune; URLs are kept whole minus trailing punctuation; letters,
// digits, '#', '@' and '\” continue a token, anything else ends it.
func (s *scratch) tokenize(text string) {
	s.reset()
	field := func(f string) {
		if hasPrefixFold(f, "http://") || hasPrefixFold(f, "https://") {
			start := len(s.buf)
			for _, r := range f {
				s.buf = utf8.AppendRune(s.buf, unicode.ToLower(r))
			}
			for len(s.buf) > start && strings.IndexByte(urlTrimSet, s.buf[len(s.buf)-1]) >= 0 {
				s.buf = s.buf[:len(s.buf)-1]
			}
			s.endToken(start)
			return
		}
		start := len(s.buf)
		for _, r := range f {
			r = unicode.ToLower(r)
			switch {
			case unicode.IsLetter(r) || unicode.IsDigit(r):
				s.buf = utf8.AppendRune(s.buf, r)
			case r == '#' || r == '@' || r == '\'':
				s.buf = utf8.AppendRune(s.buf, r)
			default:
				s.endToken(start)
				start = len(s.buf)
			}
		}
		s.endToken(start)
	}
	// Manual field walk: strings.Fields would allocate the field slice.
	fieldStart := -1
	for i, r := range text {
		if unicode.IsSpace(r) {
			if fieldStart >= 0 {
				field(text[fieldStart:i])
				fieldStart = -1
			}
		} else if fieldStart < 0 {
			fieldStart = i
		}
	}
	if fieldStart >= 0 {
		field(text[fieldStart:])
	}
}

// Tokenize lowercases text and splits it into word tokens, folding
// punctuation. URLs are kept whole (cross-posters mirror links verbatim,
// which is a strong identity signal); @mentions keep their handle; #tags
// keep the tag.
func Tokenize(text string) []string {
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	sc.tokenize(text)
	if len(sc.spans) == 0 {
		return nil
	}
	tokens := make([]string, len(sc.spans))
	for i := range sc.spans {
		tokens[i] = string(sc.token(i))
	}
	return tokens
}

// FNV-1a constants; features hash incrementally over their byte parts so
// the hot path never materializes "u:"+tok style feature strings.
const (
	fnvOffset uint32 = 2166136261
	fnvPrime  uint32 = 16777619
)

func fnvBytes(h uint32, s []byte) uint32 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint32(s[i])) * fnvPrime
	}
	return h
}

func fnvString(h uint32, s string) uint32 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint32(s[i])) * fnvPrime
	}
	return h
}

// sign maps a hash to +1/-1 so collisions cancel rather than pile up
// (signed feature hashing).
func sign(h uint32) float32 {
	if h&0x80000000 != 0 {
		return -1
	}
	return 1
}

// Embed converts text to its hashed n-gram embedding. The vector is L2
// normalized; a text with no tokens yields the zero vector. The hot path
// reuses pooled tokenizer scratch and hashes features incrementally, so
// embedding allocates nothing beyond the returned value.
func Embed(text string) Vector {
	var v Vector
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	sc.tokenize(text)
	add := func(h uint32, weight float32) {
		v[h%Dim] += sign(h>>8) * weight
	}
	n := len(sc.spans)
	for i := 0; i < n; i++ {
		tok := sc.token(i)
		// Unigram: hash of "u:"+tok.
		add(fnvBytes(fnvString(fnvOffset, "u:"), tok), 1)
		// Bigram: hash of "b:"+tok+" "+next.
		if i+1 < n {
			h := fnvBytes(fnvString(fnvOffset, "b:"), tok)
			h = (h ^ uint32(' ')) * fnvPrime
			add(fnvBytes(h, sc.token(i+1)), 1.5)
		}
		// Character trigrams catch inflection and small edits: "c:"+tri.
		if len(tok) >= 3 {
			for j := 0; j+3 <= len(tok); j++ {
				add(fnvBytes(fnvString(fnvOffset, "c:"), tok[j:j+3]), 0.4)
			}
		}
	}
	var norm float64
	for _, x := range v {
		norm += float64(x) * float64(x)
	}
	if norm > 0 {
		inv := float32(1 / math.Sqrt(norm))
		for i := range v {
			v[i] *= inv
		}
	}
	return v
}

// Cache is a concurrency-safe embedding memo keyed by canonicalized
// text. A shared Cache turns the second and later embeddings of a text
// into a map read. Within one Fig. 14 pass almost every text is
// distinct, so the memo pays off only when it is reused across runs over
// the same dataset (repeated analyses, threshold sweeps); a fresh Cache
// per run costs a map entry per text and saves almost nothing.
// Canonicalization is safe as a key because it only strips
// bytes the tokenizer ignores (surrounding whitespace, a trailing
// truncation ellipsis), so Embed(text) == Embed(canonicalize(text)).
//
// A nil *Cache is valid and simply embeds without memoization, so code
// paths can thread an optional cache unconditionally.
type Cache struct {
	mu sync.RWMutex
	m  map[string]Vector
}

// NewCache returns an empty cache.
func NewCache() *Cache {
	return &Cache{m: make(map[string]Vector)}
}

// Embed returns the embedding of text, computing and memoizing it on
// first sight of its canonical form.
func (c *Cache) Embed(text string) Vector {
	if c == nil {
		return Embed(text)
	}
	key := canonicalize(text)
	c.mu.RLock()
	v, ok := c.m[key]
	c.mu.RUnlock()
	if ok {
		return v
	}
	v = Embed(key)
	c.mu.Lock()
	c.m[key] = v
	c.mu.Unlock()
	return v
}

// Len returns the number of cached embeddings.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.m)
}

// Cosine returns the cosine similarity of two embeddings in [-1, 1].
// Zero vectors yield 0.
func Cosine(a, b Vector) float64 {
	var dot float64
	for i := range a {
		dot += float64(a[i]) * float64(b[i])
	}
	return clamp(dot)
}

// clamp bounds a dot product of normalized vectors to [-1, 1], absorbing
// float drift.
func clamp(dot float64) float64 {
	if dot > 1 {
		return 1
	}
	if dot < -1 {
		return -1
	}
	return dot
}

// Similarity is a convenience: Cosine(Embed(a), Embed(b)).
func Similarity(a, b string) float64 {
	return Cosine(Embed(a), Embed(b))
}

// canonicalize strips the variance cross-posting bridges introduce
// (trailing ellipsis truncation marker, surrounding whitespace) without
// touching meaningful content.
func canonicalize(s string) string {
	s = strings.TrimSpace(s)
	s = strings.TrimSuffix(s, "…")
	return strings.TrimSpace(s)
}

// Identical reports whether two posts carry exactly the same content
// after canonicalization, the paper's "identical" test.
func Identical(a, b string) bool {
	return canonicalize(a) == canonicalize(b)
}

// Class is the paper's three-way post relationship (§6.1, Fig. 14).
type Class int

const (
	// Different: cosine below threshold.
	Different Class = iota
	// Similar: cosine at or above threshold but not identical.
	Similar
	// IdenticalClass: exact content match.
	IdenticalClass
)

// Classify labels the relationship between a Mastodon status and a tweet
// using threshold (pass DefaultThreshold for the paper's setting).
func Classify(status, tweet string, threshold float64) Class {
	if Identical(status, tweet) {
		return IdenticalClass
	}
	if Similarity(status, tweet) >= threshold {
		return Similar
	}
	return Different
}

// Index precomputes embeddings for a set of texts so a user's full
// timeline can be compared pairwise without re-embedding (the Fig. 14
// computation is quadratic per user).
type Index struct {
	Texts   []string
	Vectors []Vector
}

// NewIndex embeds all texts serially.
func NewIndex(texts []string) *Index {
	return NewIndexParallel(texts, 1, nil)
}

// NewIndexParallel embeds all texts on a bounded worker pool, optionally
// reading through a shared embedding cache. Output is identical to
// NewIndex for any worker count.
func NewIndexParallel(texts []string, workers int, cache *Cache) *Index {
	idx := &Index{Texts: texts, Vectors: make([]Vector, len(texts))}
	parallel.ForEach(workers, len(texts), func(i int) {
		idx.Vectors[i] = cache.Embed(texts[i])
	})
	return idx
}

// BestMatch returns the index and cosine of the closest text to the
// query embedding, or (-1, 0) on an empty index. Ties break to the
// lowest index, deterministically.
//
// The scan is blocked four candidates per pass with one accumulator
// each, so four independent add chains overlap instead of one 256-step
// dependent chain, and candidates are read in place rather than copied.
// Each candidate's sum is still float64(q[k])*float64(v[k]) over
// ascending k followed by Cosine's clamp, so every similarity is
// bit-identical to Cosine(q, v): the product of two float32s is exact in
// float64, so fused multiply-adds cannot change it either.
func (ix *Index) BestMatch(q Vector) (int, float64) {
	var qf [Dim]float64
	for k, x := range q {
		qf[k] = float64(x)
	}
	best, bestSim := -1, math.Inf(-1)
	consider := func(i int, dot float64) {
		if s := clamp(dot); s > bestSim {
			best, bestSim = i, s
		}
	}
	vs := ix.Vectors
	i := 0
	for ; i+4 <= len(vs); i += 4 {
		v0, v1, v2, v3 := &vs[i], &vs[i+1], &vs[i+2], &vs[i+3]
		var d0, d1, d2, d3 float64
		for k := range qf {
			d0 += qf[k] * float64(v0[k])
			d1 += qf[k] * float64(v1[k])
			d2 += qf[k] * float64(v2[k])
			d3 += qf[k] * float64(v3[k])
		}
		consider(i, d0)
		consider(i+1, d1)
		consider(i+2, d2)
		consider(i+3, d3)
	}
	for ; i < len(vs); i++ {
		v := &vs[i]
		var d float64
		for k := range qf {
			d += qf[k] * float64(v[k])
		}
		consider(i, d)
	}
	if best < 0 {
		return -1, 0
	}
	return best, bestSim
}
