// Pubsub: the full publish/subscribe service end to end, in process.
//
//	go run ./examples/pubsub
//
// Starts an mqdp-server on a local port, registers two user profiles with
// different topics and algorithms, streams an hour of synthetic tweets
// through /ingest, and polls each profile's diversified feed — the paper's
// §1 subscription scenario as a running system. The server's address goes
// to stderr; the report on stdout is deterministic.
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"

	"mqdp/internal/match"
	"mqdp/internal/server"
	"mqdp/internal/synth"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run serves the pub/sub pipeline on an ephemeral port, drives it over HTTP
// and writes the report to w.
func run(w io.Writer) error {
	// Boot the service on an ephemeral port.
	core, err := server.New(server.Config{DupDistance: 10, DupWindow: 4096})
	if err != nil {
		return err
	}
	defer core.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: server.Handler(core)}
	defer srv.Close()
	go srv.Serve(ln)
	base := "http://" + ln.Addr().String()
	fmt.Fprintf(os.Stderr, "mqdp-server at %s\n", base)
	client := server.NewClient(base)
	ctx := context.Background()

	// Two profiles over the planted topic world.
	world := synth.NewWorld(synth.WorldConfig{BroadTopics: 3, TopicsPerBroad: 3, Seed: 8})
	newsDesk, err := client.Subscribe(ctx, server.SubscriptionConfig{
		Topics:    world.MatchTopics(world.ByBroad[0][:2]), // two politics topics
		Lambda:    300,
		Tau:       30,
		Algorithm: "streamscan+",
	})
	if err != nil {
		return err
	}
	trader, err := client.Subscribe(ctx, server.SubscriptionConfig{
		Topics:    world.MatchTopics(world.ByBroad[2][:1]), // one business topic
		Lambda:    120,
		Tau:       0,
		Algorithm: "instant",
	})
	if err != nil {
		return err
	}

	// One hour of tweets through the shared ingest.
	tweets := synth.TweetStream(world, synth.StreamConfig{Duration: 3600, RatePerSec: 3, DupRatio: 0.1, Seed: 9})
	batch := make([]server.Post, 0, 500)
	for _, tw := range tweets {
		batch = append(batch, server.Post{ID: tw.ID, Time: tw.Time, Text: tw.Text})
		if len(batch) == cap(batch) {
			if _, err := client.Ingest(ctx, batch...); err != nil {
				return err
			}
			batch = batch[:0]
		}
	}
	if len(batch) > 0 {
		if _, err := client.Ingest(ctx, batch...); err != nil {
			return err
		}
	}
	if err := client.Flush(ctx); err != nil {
		return err
	}

	stats, err := client.Stats(ctx)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "ingested %d tweets, %d near-duplicates dropped\n\n", stats.Ingested, stats.DroppedDups)

	for _, sub := range []struct {
		name string
		id   int64
	}{{"news desk", newsDesk}, {"trader", trader}} {
		ss, err := client.SubscriptionStats(ctx, sub.id)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s (%s, λ=%.0fs τ=%.0fs): %d matched → %d shown\n",
			sub.name, ss.Algorithm, ss.Lambda, ss.Tau, ss.Matched, ss.Emitted)
		es, err := client.Emissions(ctx, sub.id, 0, 3)
		if err != nil {
			return err
		}
		for _, e := range es {
			text := e.Text
			if len(text) > 48 {
				text = text[:48] + "…"
			}
			fmt.Fprintf(w, "    [%4.0fs] %v  %s\n", e.Time, e.Topics, text)
		}
	}
	printTopicsFor(w, world)
	return nil
}

// printTopicsFor shows which queries the profiles used.
func printTopicsFor(w io.Writer, world *synth.World) {
	fmt.Fprintln(w, "\nprofiles:")
	show := func(name string, topics []match.Topic) {
		fmt.Fprintf(w, "  %s:", name)
		for _, t := range topics {
			fmt.Fprintf(w, " %s", t.Name)
		}
		fmt.Fprintln(w)
	}
	show("news desk", world.MatchTopics(world.ByBroad[0][:2]))
	show("trader", world.MatchTopics(world.ByBroad[2][:1]))
}
