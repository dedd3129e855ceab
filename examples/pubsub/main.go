// Pubsub: the full publish/subscribe service end to end, in process.
//
//	go run ./examples/pubsub
//
// Starts an mqdp-server on a local port, registers two user profiles with
// different topics and algorithms, streams an hour of synthetic tweets
// through /ingest, and polls each profile's diversified feed — the paper's
// §1 subscription scenario as a running system.
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"net/http"

	"mqdp/internal/match"
	"mqdp/internal/server"
	"mqdp/internal/synth"
)

func main() {
	// Boot the service on an ephemeral port.
	core, err := server.New(server.Config{DupDistance: 10, DupWindow: 4096})
	if err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go func() {
		if err := http.Serve(ln, server.Handler(core)); err != nil && err != http.ErrServerClosed {
			log.Print(err)
		}
	}()
	base := "http://" + ln.Addr().String()
	fmt.Printf("mqdp-server at %s\n\n", base)
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
		log.Fatal(err)
	}
	trader, err := client.Subscribe(ctx, server.SubscriptionConfig{
		Topics:    world.MatchTopics(world.ByBroad[2][:1]), // one business topic
		Lambda:    120,
		Tau:       0,
		Algorithm: "instant",
	})
	if err != nil {
		log.Fatal(err)
	}

	// One hour of tweets through the shared ingest.
	tweets := synth.TweetStream(world, synth.StreamConfig{Duration: 3600, RatePerSec: 3, DupRatio: 0.1, Seed: 9})
	batch := make([]server.Post, 0, 500)
	for _, tw := range tweets {
		batch = append(batch, server.Post{ID: tw.ID, Time: tw.Time, Text: tw.Text})
		if len(batch) == cap(batch) {
			if _, err := client.Ingest(ctx, batch...); err != nil {
				log.Fatal(err)
			}
			batch = batch[:0]
		}
	}
	if len(batch) > 0 {
		if _, err := client.Ingest(ctx, batch...); err != nil {
			log.Fatal(err)
		}
	}
	if err := client.Flush(ctx); err != nil {
		log.Fatal(err)
	}

	stats, err := client.Stats(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ingested %d tweets, %d near-duplicates dropped\n\n", stats.Ingested, stats.DroppedDups)

	for _, sub := range []struct {
		name string
		id   int64
	}{{"news desk", newsDesk}, {"trader", trader}} {
		ss, err := client.SubscriptionStats(ctx, sub.id)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s (%s, λ=%.0fs τ=%.0fs): %d matched → %d shown\n",
			sub.name, ss.Algorithm, ss.Lambda, ss.Tau, ss.Matched, ss.Emitted)
		es, err := client.Emissions(ctx, sub.id, 0, 3)
		if err != nil {
			log.Fatal(err)
		}
		for _, e := range es {
			text := e.Text
			if len(text) > 48 {
				text = text[:48] + "…"
			}
			fmt.Printf("    [%4.0fs] %v  %s\n", e.Time, e.Topics, text)
		}
	}
	printTopicsFor(world)
}

// printTopicsFor shows which queries the profiles used.
func printTopicsFor(world *synth.World) {
	fmt.Println("\nprofiles:")
	show := func(name string, topics []match.Topic) {
		fmt.Printf("  %s:", name)
		for _, t := range topics {
			fmt.Printf(" %s", t.Name)
		}
		fmt.Println()
	}
	show("news desk", world.MatchTopics(world.ByBroad[0][:2]))
	show("trader", world.MatchTopics(world.ByBroad[2][:1]))
}
