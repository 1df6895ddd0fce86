package lz77

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func tokenize(t testing.TB, data []byte, level int) []Token {
	t.Helper()
	m, err := NewMatcher(level)
	if err != nil {
		t.Fatal(err)
	}
	var toks []Token
	m.Tokenize(data, func(tok Token) { toks = append(toks, tok) })
	return toks
}

func roundTrip(t *testing.T, data []byte, level int) []Token {
	t.Helper()
	toks := tokenize(t, data, level)
	got, err := Expand(nil, toks)
	if err != nil {
		t.Fatalf("expand: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("round trip mismatch: got %d bytes, want %d", len(got), len(data))
	}
	return toks
}

func TestRoundTripEmpty(t *testing.T) {
	roundTrip(t, nil, 9)
}

func TestRoundTripTiny(t *testing.T) {
	for _, s := range []string{"a", "ab", "abc", "aaaa", "abab"} {
		for level := 1; level <= 9; level++ {
			roundTrip(t, []byte(s), level)
		}
	}
}

func TestRoundTripText(t *testing.T) {
	data := []byte(strings.Repeat("the quick brown fox jumps over the lazy dog. ", 200))
	for level := 1; level <= 9; level++ {
		toks := roundTrip(t, data, level)
		if len(toks) >= len(data) {
			t.Errorf("level %d: repetitive text produced no matches (%d tokens for %d bytes)",
				level, len(toks), len(data))
		}
	}
}

func TestRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	data := make([]byte, 100*1024)
	rng.Read(data)
	for _, level := range []int{1, 6, 9} {
		roundTrip(t, data, level)
	}
}

func TestRoundTripLongRun(t *testing.T) {
	data := bytes.Repeat([]byte{0}, 300*1024)
	toks := roundTrip(t, data, 9)
	// A long zero run must compress to very few tokens (RLE via dist=1).
	if len(toks) > len(data)/100 {
		t.Errorf("zero run: %d tokens for %d bytes", len(toks), len(data))
	}
}

func TestRoundTripBeyondWindow(t *testing.T) {
	// Repeat a phrase with a gap larger than the window, so matches must be
	// found only within 32 KB.
	phrase := []byte("wireless energy measurement on the handheld device ")
	var data []byte
	rng := rand.New(rand.NewSource(8))
	filler := make([]byte, WindowSize+1000)
	rng.Read(filler)
	data = append(data, phrase...)
	data = append(data, filler...)
	data = append(data, phrase...)
	toks := roundTrip(t, data, 9)
	for _, tok := range toks {
		if !tok.IsLiteral() && int(tok.Dist) > MaxDist {
			t.Fatalf("distance %d exceeds window", tok.Dist)
		}
	}
}

func TestTokensCoverInputExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 20; trial++ {
		n := rng.Intn(5000)
		data := make([]byte, n)
		for i := range data {
			data[i] = byte(rng.Intn(8)) // compressible
		}
		toks := tokenize(t, data, 1+rng.Intn(9))
		total := 0
		for _, tok := range toks {
			total += tok.Advance()
		}
		if total != n {
			t.Fatalf("tokens cover %d bytes, want %d", total, n)
		}
	}
}

func TestMatchBounds(t *testing.T) {
	data := []byte(strings.Repeat("abcdefgh", 10000))
	toks := tokenize(t, data, 9)
	for _, tok := range toks {
		if tok.IsLiteral() {
			continue
		}
		if int(tok.Len) < MinMatch || int(tok.Len) > MaxMatch {
			t.Fatalf("match length %d out of bounds", tok.Len)
		}
		if int(tok.Dist) < 1 || int(tok.Dist) > MaxDist {
			t.Fatalf("match distance %d out of bounds", tok.Dist)
		}
	}
}

func TestHigherLevelNeverWorseTokensOnText(t *testing.T) {
	data := []byte(strings.Repeat("energy model for compressed downloading over wireless lan ", 500))
	n1 := len(tokenize(t, data, 1))
	n9 := len(tokenize(t, data, 9))
	if n9 > n1 {
		t.Errorf("level 9 produced more tokens (%d) than level 1 (%d)", n9, n1)
	}
}

func TestLevelConfigRange(t *testing.T) {
	for _, bad := range []int{0, 10, -3} {
		if _, err := LevelConfig(bad); err == nil {
			t.Errorf("LevelConfig(%d) should fail", bad)
		}
		if _, err := NewMatcher(bad); err == nil {
			t.Errorf("NewMatcher(%d) should fail", bad)
		}
	}
	for level := 1; level <= 9; level++ {
		if _, err := LevelConfig(level); err != nil {
			t.Errorf("LevelConfig(%d): %v", level, err)
		}
	}
}

func TestExpandRejectsBadDistance(t *testing.T) {
	if _, err := Expand(nil, []Token{Match(3, 1)}); err == nil {
		t.Fatal("expected error for distance beyond output")
	}
	if _, err := Expand([]byte{1, 2}, []Token{Match(3, 5)}); err == nil {
		t.Fatal("expected error for distance beyond output")
	}
}

func TestExpandOverlappingCopy(t *testing.T) {
	// dist < len is the classic overlapping RLE copy.
	out, err := Expand([]byte{'x'}, []Token{Match(10, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "xxxxxxxxxxx" {
		t.Fatalf("got %q", out)
	}
}

func TestQuickRoundTrip(t *testing.T) {
	m, err := NewMatcher(6)
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(4000)
		data := make([]byte, n)
		alpha := 1 + rng.Intn(255)
		for i := range data {
			data[i] = byte(rng.Intn(alpha))
		}
		var toks []Token
		m.Tokenize(data, func(tok Token) { toks = append(toks, tok) })
		got, err := Expand(nil, toks)
		return err == nil && bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestMatcherReusableAcrossBuffers(t *testing.T) {
	m, err := NewMatcher(9)
	if err != nil {
		t.Fatal(err)
	}
	a := []byte(strings.Repeat("first buffer content ", 100))
	b := []byte(strings.Repeat("second, different content ", 100))
	for _, data := range [][]byte{a, b, a} {
		var toks []Token
		m.Tokenize(data, func(tok Token) { toks = append(toks, tok) })
		got, err := Expand(nil, toks)
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("reuse round-trip failed: %v", err)
		}
	}
}

// shiftedWalkInputs reach findMatch's walk on a shifted chain: a crowded
// chain of records "abcd"+letter with a run of records planted at several
// lengths (the walk jumps to the rarer chain past each best match and runs
// into the chain cutoff), short periods whose next candidate overlaps the
// position searched, and phrases that recur behind varying prefixes, where
// the shifted walk reaches the nice length.
func shiftedWalkInputs() map[string][]byte {
	rng := rand.New(rand.NewSource(34))
	var crowded []byte
	record := func() []byte { return []byte{'a', 'b', 'c', 'd', byte('e' + rng.Intn(22))} }
	var run []byte
	for range 12 {
		run = append(run, record()...)
	}
	for k, n := range []int{47, 22, 38, 60, 30} {
		for range 1200 {
			crowded = append(crowded, record()...)
		}
		crowded = append(append(crowded, byte('#'+k%2)), run[:n]...)
	}
	var periods []byte
	for range 400 {
		p := make([]byte, 1+rng.Intn(8))
		for i := range p {
			p[i] = byte('a' + rng.Intn(3))
		}
		for n := 3 + rng.Intn(40); n > 0; n-- {
			periods = append(periods, p[n%len(p)])
		}
		periods = append(periods, byte('A'+rng.Intn(26)))
	}
	var phrases []byte
	phrase := []byte("the proxy compresses the block while the handheld waits for it")
	for range 300 {
		phrases = append(phrases, byte('A'+rng.Intn(26)), byte('A'+rng.Intn(26)))
		phrases = append(phrases, phrase[rng.Intn(8):]...)
	}
	return map[string][]byte{"crowded": crowded, "periods": periods, "phrases": phrases}
}

func TestRoundTripShiftedWalk(t *testing.T) {
	for name, data := range shiftedWalkInputs() {
		for level := 1; level <= 9; level++ {
			toks := roundTrip(t, data, level)
			matched := 0
			for _, tok := range toks {
				if tok.IsLiteral() {
					continue
				}
				if int(tok.Len) < MinMatch || int(tok.Len) > MaxMatch || int(tok.Dist) < 1 || int(tok.Dist) > MaxDist {
					t.Fatalf("%s, level %d: match %d at distance %d out of bounds", name, level, tok.Len, tok.Dist)
				}
				matched += int(tok.Len)
			}
			if matched < len(data)/2 {
				t.Errorf("%s, level %d: matches cover %d of %d bytes", name, level, matched, len(data))
			}
		}
	}
}
