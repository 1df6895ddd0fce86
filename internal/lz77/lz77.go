// Package lz77 implements the sliding-window string matcher at the heart of
// the LZ77/DEFLATE family: a 32 KB window, hash-chain candidate search and
// lazy matching, with the level-1..9 effort configuration popularised by
// zlib. The paper's winning scheme (gzip 1.2.4, level 9) is built on exactly
// this matcher.
package lz77

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"sync"
)

// Matching parameters fixed by the DEFLATE format.
const (
	MinMatch   = 3
	MaxMatch   = 258
	WindowSize = 32 * 1024
	MaxDist    = WindowSize
)

const (
	hashBits = 15
	hashSize = 1 << hashBits
	hashMask = hashSize - 1
	// switchLen is the shortest best match for which findMatch looks for
	// a rarer chain to walk.
	switchLen = 6
)

// Token is a single LZ77 output symbol: either a literal byte (Len == 0) or
// a back-reference of Len bytes at distance Dist.
type Token struct {
	Len  uint16
	Dist uint16
	Lit  byte
}

// Literal constructs a literal token.
func Literal(b byte) Token { return Token{Lit: b} }

// Match constructs a back-reference token.
func Match(length, dist int) Token {
	return Token{Len: uint16(length), Dist: uint16(dist)}
}

// IsLiteral reports whether the token is a literal byte.
func (t Token) IsLiteral() bool { return t.Len == 0 }

// Advance reports how many input bytes the token covers.
func (t Token) Advance() int {
	if t.Len == 0 {
		return 1
	}
	return int(t.Len)
}

// Config controls matcher effort, mirroring zlib's configuration_table.
type Config struct {
	// GoodLength: once a match of at least this length is found, reduce
	// chain search effort for the lazy candidate.
	GoodLength int
	// MaxLazy: do not attempt lazy matching when the current match is at
	// least this long.
	MaxLazy int
	// NiceLength: stop searching the chain when a match of this length is
	// found.
	NiceLength int
	// MaxChain: maximum hash-chain positions examined per match attempt.
	MaxChain int
	// Lazy enables one-byte-deferred (lazy) matching.
	Lazy bool
}

// LevelConfig returns the effort configuration for compression levels 1-9.
// The table mirrors zlib 1.1.3, the library the paper measured.
func LevelConfig(level int) (Config, error) {
	switch level {
	case 1:
		return Config{GoodLength: 4, MaxLazy: 4, NiceLength: 8, MaxChain: 4}, nil
	case 2:
		return Config{GoodLength: 4, MaxLazy: 5, NiceLength: 16, MaxChain: 8}, nil
	case 3:
		return Config{GoodLength: 4, MaxLazy: 6, NiceLength: 32, MaxChain: 32}, nil
	case 4:
		return Config{GoodLength: 4, MaxLazy: 4, NiceLength: 16, MaxChain: 16, Lazy: true}, nil
	case 5:
		return Config{GoodLength: 8, MaxLazy: 16, NiceLength: 32, MaxChain: 32, Lazy: true}, nil
	case 6:
		return Config{GoodLength: 8, MaxLazy: 16, NiceLength: 128, MaxChain: 128, Lazy: true}, nil
	case 7:
		return Config{GoodLength: 8, MaxLazy: 32, NiceLength: 128, MaxChain: 256, Lazy: true}, nil
	case 8:
		return Config{GoodLength: 32, MaxLazy: 128, NiceLength: 258, MaxChain: 1024, Lazy: true}, nil
	case 9:
		return Config{GoodLength: 32, MaxLazy: 258, NiceLength: 258, MaxChain: 4096, Lazy: true}, nil
	default:
		return Config{}, fmt.Errorf("lz77: level %d out of range 1..9", level)
	}
}

// Matcher tokenises input using hash-chain search over a sliding window.
// A Matcher is reusable via Reset and not safe for concurrent use.
type Matcher struct {
	cfg   Config
	level int
	head  [hashSize]int32
	prev  [WindowSize]int32
	// count is each bucket's number of insertions since reset, and idx
	// each window position's insertion index in its own bucket, both
	// modulo 2^16: how far apart two positions of one chain within the
	// window are is known without walking it.
	count [hashSize]uint16
	idx   [WindowSize]uint16
}

// NewMatcher returns a matcher at the given compression level.
func NewMatcher(level int) (*Matcher, error) {
	cfg, err := LevelConfig(level)
	if err != nil {
		return nil, err
	}
	m := &Matcher{cfg: cfg, level: level}
	m.reset()
	return m, nil
}

// maxIdleMatchers bounds each level's free list: matchers in use at once
// beyond it are dropped when put back rather than kept.
const maxIdleMatchers = 8

// idleMatchers recycles matchers per level: the head, prev, count and idx
// arrays are 384 KB of state that the compress-on-demand hot path would
// otherwise allocate (and fault in) on every call. Unlike a sync.Pool's,
// its matchers outlive a collection.
var idleMatchers struct {
	mu    sync.Mutex
	level [9][]*Matcher
}

// GetMatcher returns a recycled matcher for the level, allocating one only
// when none is idle. Pair with PutMatcher.
func GetMatcher(level int) (*Matcher, error) {
	if level < 1 || level > 9 {
		return nil, fmt.Errorf("lz77: level %d out of range 1..9", level)
	}
	idleMatchers.mu.Lock()
	idle := &idleMatchers.level[level-1]
	if n := len(*idle); n > 0 {
		m := (*idle)[n-1]
		*idle = (*idle)[:n-1]
		idleMatchers.mu.Unlock()
		return m, nil
	}
	idleMatchers.mu.Unlock()
	return NewMatcher(level)
}

// PutMatcher recycles a matcher obtained from GetMatcher (or NewMatcher).
// The matcher must not be used after being put back.
func PutMatcher(m *Matcher) {
	if m == nil {
		return
	}
	idleMatchers.mu.Lock()
	defer idleMatchers.mu.Unlock()
	if idle := &idleMatchers.level[m.level-1]; len(*idle) < maxIdleMatchers {
		*idle = append(*idle, m)
	}
}

// reset empties the hash buckets' heads and counts. The chain links in prev
// and the indexes in idx stay as they are: a walk starts at a head, so it
// only ever reads slots written since.
func (m *Matcher) reset() {
	for i := range m.head {
		m.head[i] = -1
	}
	clear(m.count[:])
}

func hash4(data []byte, i int) uint32 {
	// Multiplicative hash over 4 bytes; good dispersion for text and binary.
	v := uint32(data[i]) | uint32(data[i+1])<<8 | uint32(data[i+2])<<16 | uint32(data[i+3])<<24
	return (v * 2654435761) >> (32 - hashBits) & hashMask
}

func hash3(data []byte, i int) uint32 {
	v := uint32(data[i]) | uint32(data[i+1])<<8 | uint32(data[i+2])<<16
	return (v * 506832829) >> (32 - hashBits) & hashMask
}

func (m *Matcher) hashAt(data []byte, i int) uint32 {
	if i+4 <= len(data) {
		return hash4(data, i)
	}
	return hash3(data, i)
}

func (m *Matcher) insert(data []byte, i int) {
	h := m.hashAt(data, i)
	m.prev[i&(WindowSize-1)] = m.head[h]
	c := m.count[h]
	m.idx[i&(WindowSize-1)] = c
	m.count[h] = c + 1
	m.head[h] = int32(i)
}

// findMatch searches the hash chain for the longest match at position i,
// requiring it to beat prevLen. It returns length 0 when nothing longer is
// found.
func (m *Matcher) findMatch(data []byte, i, prevLen, maxChain int) (length, dist int) {
	limit := i - MaxDist
	if limit < 0 {
		limit = 0
	}
	maxLen := len(data) - i
	if maxLen > MaxMatch {
		maxLen = MaxMatch
	}
	if maxLen < MinMatch {
		return 0, 0
	}
	nice := m.cfg.NiceLength
	if nice > maxLen {
		nice = maxLen
	}
	best := prevLen
	bestDist := 0
	if best >= maxLen {
		// Nothing at this position can beat the pending match; every
		// candidate would fail the end-bytes quick reject below.
		return 0, 0
	}
	// Quick rejects, one load each. While nothing is pending (best below
	// MinMatch) only a candidate whose first three bytes are those at i can
	// be of use, and on data that does not compress nearly every candidate
	// is a hash collision that fails there. After that a candidate can only
	// beat the current best if it matches through byte best, so the two
	// bytes ending there are compared; hoisted out of the chain walk and
	// refreshed when best improves (best < maxLen holds throughout, keeping
	// i+best in bounds). All chain entries are positions this Tokenize call
	// inserted before reaching i, so every candidate j satisfies j < i and
	// the loads below stay in bounds: j+4 <= i+MinMatch <= len(data).
	first := uint32(data[i]) | uint32(data[i+1])<<8 | uint32(data[i+2])<<16
	var scanEnd uint16
	if best >= MinMatch {
		scanEnd = binary.LittleEndian.Uint16(data[i+best-1:])
	}
	// The arrays' fixed sizes let the compiler drop bounds checks on the
	// masked chain loads in the hot walk.
	prev := &m.prev
	h := m.hashAt(data, i)
	cand := m.head[h]
	// A rarer chain to walk instead: once best >= switchLen, every candidate
	// j that can beat it has at j+shift the four bytes at i+shift, shift =
	// best-3, so it is on their chain too. If that bucket has seen fewer
	// insertions, the walk goes on here while the next candidate is at or
	// above lo = i-shift, where j+shift has not been inserted yet, and then
	// jumps.
	var next uint32
	shift := 0
	lo := int32(limit)
	if best >= switchLen {
		if t := hash4(data, i+best-3); m.count[t] < m.count[h] {
			next, shift = t, best-3
			lo = max(int32(limit), int32(i-shift))
		}
	}
	chain := 0
	for ; chain < maxChain && cand >= lo; chain++ {
		j := int(cand)
		cand = prev[j&(WindowSize-1)]
		if best < MinMatch {
			if binary.LittleEndian.Uint32(data[j:])&0xffffff != first {
				continue
			}
		} else if binary.LittleEndian.Uint16(data[j+best-1:]) != scanEnd {
			continue
		}
		l := matchLen(data, j, i, maxLen)
		if l > best {
			best = l
			bestDist = i - j
			if l >= nice {
				return best, bestDist
			}
			scanEnd = binary.LittleEndian.Uint16(data[i+best-1:])
			if best >= switchLen {
				if t := hash4(data, i+best-3); m.count[t] < m.count[h] {
					next, shift = t, best-3
					lo = max(int32(limit), int32(i-shift))
				}
			}
		}
	}
	if chain < maxChain && cand >= int32(limit) {
		best, bestDist = m.walkShifted(data, i, limit, maxLen, nice, maxChain, best, bestDist, m.count[h]-1, shift, next)
	}
	if bestDist == 0 || best < MinMatch {
		return 0, 0
	}
	return best, bestDist
}

// walkShifted goes on with findMatch's search on the chain of bucket next,
// whose positions are candidates shifted by shift. That chain holds every
// candidate that can beat best but also positions that do not match at i,
// which the first four bytes reject. One that passes is on the chain at i,
// whose head has insertion index top: its place in findMatch's walk is top
// less its own index, and as that walk stops at a place of maxChain, so does
// this one. A longer best moves the walk to a rarer chain again, once the
// candidates have passed i-shift for the new shift.
func (m *Matcher) walkShifted(data []byte, i, limit, maxLen, nice, maxChain, best, bestDist int, top uint16, shift int, next uint32) (int, int) {
	prev, idx := &m.prev, &m.idx
	first4 := binary.LittleEndian.Uint32(data[i:])
	scanEnd := binary.LittleEndian.Uint16(data[i+best-1:])
	cand, seen := m.head[next], m.count[next]
	nextShift, lo := 0, limit
	for {
		j := int(cand) - shift
		if j < lo {
			if j < limit {
				break
			}
			cand, seen, shift, lo = m.head[next], m.count[next], nextShift, limit
			continue
		}
		cand = prev[int(cand)&(WindowSize-1)]
		if binary.LittleEndian.Uint32(data[j:]) != first4 {
			continue
		}
		if int(top-idx[j&(WindowSize-1)]) >= maxChain {
			break
		}
		if binary.LittleEndian.Uint16(data[j+best-1:]) != scanEnd {
			continue
		}
		l := matchLen(data, j, i, maxLen)
		if l > best {
			best = l
			bestDist = i - j
			if l >= nice {
				break
			}
			scanEnd = binary.LittleEndian.Uint16(data[i+best-1:])
			if t := hash4(data, i+best-3); m.count[t] < seen {
				next, nextShift = t, best-3
				lo = max(limit, i-nextShift)
			}
		}
	}
	return best, bestDist
}

// matchLen compares 8 bytes per step; j < i keeps every load inside data
// because i+maxLen <= len(data).
func matchLen(data []byte, j, i, maxLen int) int {
	n := 0
	for n+8 <= maxLen {
		x := binary.LittleEndian.Uint64(data[j+n:]) ^ binary.LittleEndian.Uint64(data[i+n:])
		if x != 0 {
			return n + bits.TrailingZeros64(x)>>3
		}
		n += 8
	}
	for n < maxLen && data[j+n] == data[i+n] {
		n++
	}
	return n
}

// Tokenize scans data and emits LZ77 tokens through emit. The token stream
// exactly covers data: the sum of Advance() over all tokens equals
// len(data). Reset state is cleared per call, so each call tokenises an
// independent buffer (one compression "member").
func (m *Matcher) Tokenize(data []byte, emit func(Token)) {
	m.reset()
	n := len(data)
	if n == 0 {
		return
	}
	i := 0
	// Pending lazy literal state.
	prevLen, prevDist := 0, 0
	havePrev := false
	for i < n {
		if n-i < MinMatch {
			if havePrev {
				emit(Literal(data[i-1]))
				havePrev = false
			}
			for ; i < n; i++ {
				emit(Literal(data[i]))
			}
			break
		}
		if havePrev && prevLen >= m.cfg.MaxLazy {
			// The pending match is already long enough that the lazy
			// comparison below could never prefer a new one (prevLen >=
			// MaxLazy fails its guard); skip the search entirely, as zlib
			// does. Emitting here is the same decision the comparison would
			// reach.
			emit(Match(prevLen, prevDist))
			end := i - 1 + prevLen
			for k := i; k < end && k+MinMatch <= n; k++ {
				m.insert(data, k)
			}
			i = end
			havePrev = false
			continue
		}
		chain := m.cfg.MaxChain
		searchFloor := 0
		if havePrev {
			if prevLen >= m.cfg.GoodLength {
				chain >>= 2
			}
			// zlib's prev_length pruning: the lazy comparison only cares
			// whether this position beats the pending match, so the search
			// may reject anything not longer than prevLen. findMatch then
			// returns 0 when nothing beats it, which leaves the curLen >
			// prevLen decision unchanged.
			searchFloor = prevLen
		}
		curLen, curDist := m.findMatch(data, i, searchFloor, chain)

		if !m.cfg.Lazy {
			if curLen >= MinMatch {
				emit(Match(curLen, curDist))
				// Insert positions covered by the match (bounded for speed
				// at low levels, as zlib does for short inserts).
				end := i + curLen
				m.insert(data, i)
				for k := i + 1; k < end && k+MinMatch <= n; k++ {
					m.insert(data, k)
				}
				i = end
			} else {
				emit(Literal(data[i]))
				m.insert(data, i)
				i++
			}
			continue
		}

		// Lazy matching: compare this position's match with the previous
		// position's pending match.
		if havePrev {
			if curLen > prevLen && prevLen < m.cfg.MaxLazy {
				// The new match is better: the previous byte becomes a
				// literal and the new match stays pending.
				emit(Literal(data[i-1]))
				prevLen, prevDist = curLen, curDist
				m.insert(data, i)
				i++
				continue
			}
			// Previous match wins; emit it anchored at i-1.
			emit(Match(prevLen, prevDist))
			end := i - 1 + prevLen
			for k := i; k < end && k+MinMatch <= n; k++ {
				m.insert(data, k)
			}
			i = end
			havePrev = false
			continue
		}
		if curLen >= MinMatch && curLen < m.cfg.MaxLazy {
			// Defer the decision by one byte.
			prevLen, prevDist = curLen, curDist
			havePrev = true
			m.insert(data, i)
			i++
			continue
		}
		if curLen >= MinMatch {
			emit(Match(curLen, curDist))
			end := i + curLen
			m.insert(data, i)
			for k := i + 1; k < end && k+MinMatch <= n; k++ {
				m.insert(data, k)
			}
			i = end
			continue
		}
		emit(Literal(data[i]))
		m.insert(data, i)
		i++
	}
	if havePrev {
		emit(Literal(data[n-1]))
	}
}
