package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"time"
)

const pollLimit = 2048

// checkServer compares what the server holds with what the reference
// pipeline produced from the same inputs. It polls every emission of the
// verified subscriptions and requires the response bodies to equal, byte for
// byte, the reference's sequence in the server's JSON shape; then it
// cross-checks the /metrics totals and every profile's matched and emitted
// counts. It returns how long each poll took.
func checkServer(c *client, ref *reference) (pollMs []float64, err error) {
	for _, sub := range ref.subs {
		if !sub.verified {
			continue
		}
		for after := 0; ; after += pollLimit {
			page := sub.emissions[min(after, len(sub.emissions)):min(after+pollLimit, len(sub.emissions))]
			if page == nil {
				page = []emission{}
			}
			want, err := json.Marshal(page)
			if err != nil {
				return nil, err
			}
			want = append(want, '\n')
			t := time.Now()
			got, err := poll(c, sub.id, after)
			if err != nil {
				return nil, err
			}
			pollMs = append(pollMs, ms(time.Since(t)))
			if !bytes.Equal(got, want) {
				return nil, fmt.Errorf("subscription %d, emissions after seq %d: server and reference differ\n%s", sub.id, after, firstDifference(got, want))
			}
			if len(page) < pollLimit {
				break
			}
		}
	}

	var m struct {
		Ingested      int64 `json:"ingested"`
		DroppedDups   int64 `json:"dropped_duplicates"`
		Subscriptions int   `json:"subscriptions"`
		TextMisses    int64 `json:"text_misses"`
		Quarantines   int64 `json:"quarantines"`
		Profiles      []struct {
			ID          int64 `json:"id"`
			Matched     int64 `json:"matched"`
			Emitted     int64 `json:"emitted"`
			Quarantined bool  `json:"quarantined"`
		} `json:"profiles"`
	}
	if err := c.getJSON("/metrics", &m); err != nil {
		return nil, err
	}
	switch {
	case m.Ingested != ref.posts:
		return nil, fmt.Errorf("/metrics ingested %d, sent %d", m.Ingested, ref.posts)
	case m.DroppedDups != ref.dropped:
		return nil, fmt.Errorf("/metrics dropped_duplicates %d, reference dropped %d", m.DroppedDups, ref.dropped)
	case m.TextMisses != 0:
		return nil, fmt.Errorf("/metrics text_misses %d, want 0", m.TextMisses)
	case m.Quarantines != 0:
		return nil, fmt.Errorf("/metrics quarantines %d, want 0", m.Quarantines)
	case m.Subscriptions != len(ref.subs) || len(m.Profiles) != len(ref.subs):
		return nil, fmt.Errorf("/metrics lists %d subscriptions (%d profiles), registered %d", m.Subscriptions, len(m.Profiles), len(ref.subs))
	}
	for i, p := range m.Profiles {
		sub := ref.subs[i]
		if p.ID != sub.id || p.Quarantined || p.Matched != sub.matched || p.Emitted != sub.emitted {
			return nil, fmt.Errorf("/metrics profile %d: matched %d emitted %d quarantined %v, reference subscription %d matched %d emitted %d",
				p.ID, p.Matched, p.Emitted, p.Quarantined, sub.id, sub.matched, sub.emitted)
		}
	}
	return pollMs, nil
}

// poll fetches one page; a gap on a verified subscription fails the run.
func poll(c *client, id int64, after int) ([]byte, error) {
	req, err := http.NewRequest(http.MethodGet, fmt.Sprintf("%s/subscriptions/%d/emissions?after=%d&limit=%d", c.base, id, after, pollLimit), nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("poll subscription %d after %d: status %d: %s", id, after, resp.StatusCode, bytes.TrimSpace(buf.Bytes()))
	}
	if gap := resp.Header.Get("X-Gap-From"); gap != "" {
		return nil, fmt.Errorf("poll subscription %d after %d: emissions from seq %s were trimmed", id, after, gap)
	}
	return buf.Bytes(), nil
}

func firstDifference(got, want []byte) string {
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	clip := func(b []byte) []byte { return b[max(0, i-80):min(len(b), i+80)] }
	return fmt.Sprintf("at byte %d of %d/%d\n  server:    …%s…\n  reference: …%s…", i, len(got), len(want), clip(got), clip(want))
}
