package simhash

// The implementations the package used before the quarter index and the
// word-continuing fingerprint, kept as the oracles its tests compare with.

// FromFeatures builds a fingerprint from explicit feature strings, one
// signed vote per feature and bit.
func FromFeatures(features []string) Hash {
	var counts [64]int
	for _, f := range features {
		h := fnv1a(fnvOffset, f)
		for b := 0; b < 64; b++ {
			if h&(1<<uint(b)) != 0 {
				counts[b]++
			} else {
				counts[b]--
			}
		}
	}
	var out uint64
	for b := 0; b < 64; b++ {
		if counts[b] > 0 {
			out |= 1 << uint(b)
		}
	}
	return Hash(out)
}

// shingles returns word bigrams (and the lone word for single-word texts).
func shingles(words []string) []string {
	if len(words) == 0 {
		return nil
	}
	if len(words) == 1 {
		return words
	}
	out := make([]string, 0, len(words)-1)
	for i := 0; i+1 < len(words); i++ {
		out = append(out, words[i]+" "+words[i+1])
	}
	return out
}

// linearDeduper is the whole-window scan: the definition of what a Deduper
// must answer.
type linearDeduper struct {
	maxDistance, window int
	recent              []Hash // oldest→newest
}

func (l *linearDeduper) offerHash(h Hash) bool {
	for _, r := range l.recent {
		if Distance(r, h) <= l.maxDistance {
			return false
		}
	}
	l.recent = append(l.recent, h)
	if len(l.recent) > l.window {
		l.recent = l.recent[1:]
	}
	return true
}
