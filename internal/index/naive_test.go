package index

import "sort"

// This file holds the pre-optimization reference implementations of the
// query methods: straight linear scans over every posting with a per-posting
// time check, no segment/term skipping, no binary search, no galloping. They
// pin the same snapshot as the optimized paths, so on a quiesced index their
// results are definitionally comparable — the equivalence property tests pin
// TermQuery/AnyQuery/AllQuery/Search to them, and the scan sub-benchmarks in
// bench_test.go time them beside the optimized paths.

// scanTermPositions linearly filters every posting of term by time.
func (v *view) scanTermPositions(term string, lo, hi float64, out []int32) []int32 {
	for _, seg := range v.sealed {
		for _, p := range seg.postings[term].list {
			if t := seg.times[p.pos-seg.start]; t >= lo && t <= hi {
				out = append(out, p.pos)
			}
		}
	}
	act := v.active
	docs := act.visibleDocs()
	limit := act.start + int32(len(docs))
	for _, p := range act.clampedPostings(term, limit) {
		if t := docs[p.pos-act.start].Time; t >= lo && t <= hi {
			out = append(out, p.pos)
		}
	}
	return out
}

// TermQueryScan is the linear-scan reference for TermQuery.
func (ix *Index) TermQueryScan(term string, lo, hi float64) []int32 {
	return ix.snap.Load().scanTermPositions(term, lo, hi, nil)
}

// AnyQueryScan is the linear-scan reference for AnyQuery.
func (ix *Index) AnyQueryScan(terms []string, lo, hi float64) []int32 {
	v := ix.snap.Load()
	var all []int32
	for _, t := range terms {
		all = v.scanTermPositions(t, lo, hi, all)
	}
	return sortDedup(all)
}

// AllQueryScan is the reference for AllQuery: rarest-first two-pointer merge
// intersection over linearly filtered lists (the pre-galloping algorithm).
func (ix *Index) AllQueryScan(terms []string, lo, hi float64) []int32 {
	v := ix.snap.Load()
	if len(terms) == 0 {
		return nil
	}
	lists := make([][]int32, 0, len(terms))
	for _, t := range terms {
		pl := v.scanTermPositions(t, lo, hi, nil)
		if len(pl) == 0 {
			return nil
		}
		lists = append(lists, pl)
	}
	sort.Slice(lists, func(i, j int) bool { return len(lists[i]) < len(lists[j]) })
	cur := lists[0]
	for _, other := range lists[1:] {
		next := cur[:0]
		k := 0
		for _, pos := range cur {
			for k < len(other) && other[k] < pos {
				k++
			}
			if k < len(other) && other[k] == pos {
				next = append(next, pos)
			}
		}
		cur = next
		if len(cur) == 0 {
			return nil
		}
	}
	return cur
}

// SearchScan is the reference for Search: full TF-IDF scoring by linear
// scan, a complete sort of every scored document, then truncation to k.
func (ix *Index) SearchScan(query string, k int, lo, hi float64) []Hit {
	if k <= 0 {
		return nil
	}
	v := ix.snap.Load()
	n := float64(v.count())
	scores := make(map[int32]float64)
	act := v.active
	actDocs := act.visibleDocs()
	actLimit := act.start + int32(len(actDocs))
	for _, term := range searchTerms(query) {
		df := v.docFreq(term)
		if df == 0 {
			continue
		}
		idf := idfWeight(n, float64(df))
		for _, seg := range v.sealed {
			for _, p := range seg.postings[term].list {
				if t := seg.times[p.pos-seg.start]; t >= lo && t <= hi {
					scores[p.pos] += tfWeight(p.freq) * idf
				}
			}
		}
		for _, p := range act.clampedPostings(term, actLimit) {
			if t := actDocs[p.pos-act.start].Time; t >= lo && t <= hi {
				scores[p.pos] += tfWeight(p.freq) * idf
			}
		}
	}
	hits := make([]Hit, 0, len(scores))
	for pos, score := range scores {
		hits = append(hits, Hit{Pos: pos, Score: score})
	}
	sort.Slice(hits, func(i, j int) bool { return worseHit(hits[j], hits[i]) })
	if len(hits) > k {
		hits = hits[:k]
	}
	return hits
}
