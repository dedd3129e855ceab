package obs

import (
	"bufio"
	"io"
	"math"
	"strconv"
	"strings"
)

// WritePrometheus writes every registered instrument in the Prometheus text
// exposition format (version 0.0.4): a # HELP and # TYPE header per metric,
// counters and gauges as single samples, histograms as cumulative
// `le`-labelled _bucket series plus _sum and _count. Metrics are emitted in
// sorted name order, so the output is deterministic for deterministic
// instrument state. A nil registry writes nothing.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	bw := bufio.NewWriter(w)
	for _, name := range r.names() {
		k := r.kinds[name]
		writeHeader(bw, name, r.help[name], k)
		switch k {
		case kindCounter:
			bw.WriteString(name)
			bw.WriteByte(' ')
			bw.WriteString(strconv.FormatInt(r.counters[name].Value(), 10))
			bw.WriteByte('\n')
		case kindGauge:
			bw.WriteString(name)
			bw.WriteByte(' ')
			bw.WriteString(formatFloat(r.gauges[name].Value()))
			bw.WriteByte('\n')
		case kindHistogram:
			writeHistogram(bw, name, r.hists[name])
		}
	}
	return bw.Flush()
}

func writeHeader(bw *bufio.Writer, name, help string, k kind) {
	if help != "" {
		bw.WriteString("# HELP ")
		bw.WriteString(name)
		bw.WriteByte(' ')
		bw.WriteString(escapeHelp(help))
		bw.WriteByte('\n')
	}
	bw.WriteString("# TYPE ")
	bw.WriteString(name)
	bw.WriteByte(' ')
	bw.WriteString(k.String())
	bw.WriteByte('\n')
}

func writeHistogram(bw *bufio.Writer, name string, h *Histogram) {
	cum := int64(0)
	for i := 0; i < h.NumBuckets(); i++ {
		cum += h.BucketCount(i)
		bw.WriteString(name)
		bw.WriteString(`_bucket{le="`)
		bw.WriteString(formatLe(h.BucketBound(i)))
		bw.WriteString(`"} `)
		bw.WriteString(strconv.FormatInt(cum, 10))
		// OpenMetrics-style exemplar on the +Inf bucket: links the
		// histogram's largest traced observation to its trace ID.
		if i == h.NumBuckets()-1 {
			if v, trace, ok := h.Exemplar(); ok {
				bw.WriteString(` # {trace_id="`)
				bw.WriteString(trace.String())
				bw.WriteString(`"} `)
				bw.WriteString(formatFloat(v))
			}
		}
		bw.WriteByte('\n')
	}
	bw.WriteString(name)
	bw.WriteString("_sum ")
	bw.WriteString(formatFloat(h.Sum()))
	bw.WriteByte('\n')
	bw.WriteString(name)
	bw.WriteString("_count ")
	bw.WriteString(strconv.FormatInt(h.Count(), 10))
	bw.WriteByte('\n')
}

func formatLe(b float64) string {
	if math.IsInf(b, 1) {
		return "+Inf"
	}
	return formatFloat(b)
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeHelp escapes backslashes and newlines per the exposition format.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}
