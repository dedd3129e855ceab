// Package simhash implements 64-bit SimHash fingerprints (Charikar's
// rounding scheme as used by Manku et al., WWW'07 — reference [17] of the
// paper) and a sliding-window near-duplicate filter. The paper's pipeline
// removes near-duplicate posts with SimHash before diversification, since
// microblogging posts are too short for text distance functions.
//
// The filter is exact for every distance k and its lookup does not grow
// with the window: the window is indexed by the four 16-bit quarters of
// each fingerprint (multi-index hashing), and a lookup probes, per quarter,
// only the keys within ⌊k/4⌋ bits of the query's quarter — two fingerprints
// within k bits must agree that closely on at least one quarter. Short
// texts need k around 10–12 (EXPERIMENTS.md, ablation-dedup), which is 137
// probes per quarter against a window of any size; the probe count grows as
// Σ C(16,i) for i ≤ ⌊k/4⌋, so k ≥ 16 stays correct but gets slow (2,517
// per quarter at 16, all 65,536 keys from 64).
package simhash

import (
	"math/bits"

	"mqdp/internal/textutil"
)

// Hash is a 64-bit SimHash fingerprint.
type Hash uint64

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fnv1a continues an FNV-1a hash over s (inlined to avoid allocating a
// hash.Hash64 per token).
func fnv1a(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}

// Compute fingerprints text: each token bigram (shingle) votes its hash bits
// up or down; the sign of each bit-sum forms the fingerprint. Token bigrams
// keep short posts with shared vocabulary but different phrasing apart,
// while near-identical posts (retweets, "via @x" suffixes) collide within a
// few bits.
func Compute(text string) Hash {
	return ComputeWords(textutil.Words(text))
}

// ComputeWords is Compute for already-tokenised text (textutil.Words
// order). A lone word is its own shingle; no words fingerprint to 0.
func ComputeWords(words []string) Hash {
	if len(words) == 0 {
		return 0
	}
	if len(words) == 1 {
		return Hash(fnv1a(fnvOffset, words[0]))
	}
	// ones[b] counts the shingles whose hash has bit b set. Continuing
	// FNV-1a across word, ' ', word hashes the shingle "w1 w2" without
	// building it.
	var ones [64]int32
	for i := 0; i+1 < len(words); i++ {
		h := fnv1a(fnvOffset, words[i])
		h = (h ^ ' ') * fnvPrime
		h = fnv1a(h, words[i+1])
		for b := range ones {
			ones[b] += int32(h >> uint(b) & 1)
		}
	}
	// Bit b is set when the up-votes outnumber the down-votes.
	n := int32(len(words) - 1)
	var out uint64
	for b, c := range ones {
		if 2*c > n {
			out |= 1 << uint(b)
		}
	}
	return Hash(out)
}

// Distance returns the Hamming distance between two fingerprints.
func Distance(a, b Hash) int {
	return bits.OnesCount64(uint64(a) ^ uint64(b))
}

// Deduper filters a stream of texts, dropping near-duplicates: a text whose
// fingerprint is within MaxDistance bits of any fingerprint seen in the last
// Window accepted texts. The zero MaxDistance drops only exact fingerprint
// matches. A Deduper is not safe for concurrent use.
type Deduper struct {
	maxDistance int
	window      int
	// slots[1..window] is the ring of accepted fingerprints; index 0 is
	// the nil link. pos is the slot the next accepted fingerprint takes
	// and full reports that it holds the oldest one, to be evicted first.
	slots []slot
	pos   uint32
	full  bool
	// head[q][key] starts the chain of slots whose q-th 16-bit quarter is
	// key; the chain runs through slot.next[q] / slot.prev[q].
	head [4][1 << 16]uint32
	// masks are the XOR masks that turn a quarter of a query into every
	// key a near-duplicate's quarter could have (see ballMasks).
	masks   []uint16
	words   []string // Offer's tokenisation buffer
	seen    int
	dropped int
}

// slot is one ring entry with its four intrusive chain links.
type slot struct {
	hash       Hash
	next, prev [4]uint32
}

// NewDeduper returns a Deduper keeping window fingerprints and dropping
// texts within maxDistance bits of any of them, exactly, for any
// maxDistance. Lookup cost depends on maxDistance (see the package
// comment), not on window. Each Deduper carries about 1.3 MB of chain
// heads and links at the shipped window of 8192 (1 MB of heads plus 40
// bytes per slot).
func NewDeduper(maxDistance, window int) *Deduper {
	if window < 1 {
		window = 1
	}
	return &Deduper{
		maxDistance: maxDistance,
		window:      window,
		slots:       make([]slot, window+1),
		pos:         1,
		masks:       ballMasks(maxDistance),
	}
}

// ballMasks returns the 16-bit XOR masks of the Hamming ball of radius
// ⌊k/4⌋. If every quarter of two fingerprints differed in more bits than
// that, the fingerprints would differ in at least 4(⌊k/4⌋+1) > k bits, so
// probing the ball around each quarter of a query misses nothing within k.
func ballMasks(k int) []uint16 {
	if k < 0 {
		return nil // nothing is within a negative distance
	}
	var masks []uint16
	for m := 0; m < 1<<16; m++ {
		if bits.OnesCount16(uint16(m)) <= k/4 {
			masks = append(masks, uint16(m))
		}
	}
	return masks
}

// Offer fingerprints text and reports whether it is novel. Novel texts are
// remembered; duplicates are counted and dropped.
func (d *Deduper) Offer(text string) bool {
	d.words = textutil.AppendWords(d.words[:0], text)
	return d.OfferWords(d.words)
}

// OfferWords is Offer for already-tokenised text (textutil.Words order),
// for callers that need the words anyway. It does not retain words.
func (d *Deduper) OfferWords(words []string) bool {
	return d.OfferHash(ComputeWords(words))
}

// OfferHash is Offer for a precomputed fingerprint.
func (d *Deduper) OfferHash(h Hash) bool {
	d.seen++
	if d.isDuplicate(h) {
		d.dropped++
		return false
	}
	d.remember(h)
	return true
}

// quarter returns the q-th 16-bit quarter of h, its key in head[q].
func quarter(h Hash, q int) uint16 { return uint16(uint64(h) >> (16 * uint(q))) }

func (d *Deduper) isDuplicate(h Hash) bool {
	for q := range d.head {
		key := quarter(h, q)
		for _, m := range d.masks {
			for i := d.head[q][key^m]; i != 0; i = d.slots[i].next[q] {
				if Distance(d.slots[i].hash, h) <= d.maxDistance {
					return true
				}
			}
		}
	}
	return false
}

func (d *Deduper) remember(h Hash) {
	s := &d.slots[d.pos]
	if d.full {
		// Unlink the oldest fingerprint from its four chains.
		for q := range d.head {
			if s.prev[q] != 0 {
				d.slots[s.prev[q]].next[q] = s.next[q]
			} else {
				d.head[q][quarter(s.hash, q)] = s.next[q]
			}
			if s.next[q] != 0 {
				d.slots[s.next[q]].prev[q] = s.prev[q]
			}
		}
	}
	s.hash = h
	for q := range d.head {
		first := &d.head[q][quarter(h, q)]
		s.next[q], s.prev[q] = *first, 0
		if *first != 0 {
			d.slots[*first].prev[q] = d.pos
		}
		*first = d.pos
	}
	d.pos++
	if int(d.pos) > d.window {
		d.pos = 1
		d.full = true
	}
}

// Stats reports how many texts were offered and dropped.
func (d *Deduper) Stats() (seen, dropped int) { return d.seen, d.dropped }

// DeduperState is the serializable state of a Deduper: configuration, the
// accepted-fingerprint window oldest→newest, and counters. The quarter
// index is derived data and is rebuilt on restore.
type DeduperState struct {
	MaxDistance int
	Window      int
	Recent      []Hash
	Seen        int
	Dropped     int
}

// State captures the deduper for serialization.
func (d *Deduper) State() DeduperState {
	st := DeduperState{
		MaxDistance: d.maxDistance,
		Window:      d.window,
		Seen:        d.seen,
		Dropped:     d.dropped,
	}
	// Export the ring oldest→newest so restore can replay it through
	// remember() regardless of the window size it lands in.
	if d.full {
		for _, s := range d.slots[d.pos:] {
			st.Recent = append(st.Recent, s.hash)
		}
	}
	for _, s := range d.slots[1:d.pos] {
		st.Recent = append(st.Recent, s.hash)
	}
	return st
}

// RestoreDeduper rebuilds a Deduper (including its quarter index) from a
// captured state. A caller may change st.MaxDistance or st.Window first: a
// smaller window keeps the newest fingerprints.
func RestoreDeduper(st DeduperState) *Deduper {
	d := NewDeduper(st.MaxDistance, st.Window)
	for _, h := range st.Recent {
		d.remember(h)
	}
	d.seen = st.Seen
	d.dropped = st.Dropped
	return d
}
