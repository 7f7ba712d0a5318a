package stream_test

import (
	"fmt"
	"time"

	"sybilwild/internal/osn"
	"sybilwild/internal/stream"
)

// ExampleServer wires a feed server to a subscriber via
// SubscribeBatch, the resuming exactly-once consumption loop: the server drains the
// feed into the subscriber before ending it, so every
// broadcast event arrives even though Close races the consumption.
func ExampleServer() {
	srv, err := stream.NewServer("127.0.0.1:0")
	if err != nil {
		panic(err)
	}

	received := make(chan int, 1)
	go func() {
		n := 0
		if err := stream.SubscribeBatch(srv.Addr(), func(evs []osn.Event) { n += len(evs) }, 5); err != nil {
			panic(err)
		}
		received <- n
	}()
	for srv.NumClients() == 0 {
		time.Sleep(time.Millisecond)
	}

	for i := 0; i < 1000; i++ {
		srv.BroadcastBatch([]osn.Event{{Type: osn.EvFriendRequest, At: int64(i), Actor: 1, Target: 2}})
	}
	srv.Close() // drain, then end of feed

	fmt.Println("received", <-received, "events")
	st := srv.Stats()
	fmt.Println("lossless:", st.Delivered == st.Broadcast && st.Evicted == 0)
	// Output:
	// received 1000 events
	// lossless: true
}

// ExampleDial drives the client by hand: RecvBatch yields events in
// sequence order, whole wire batches at a time, and LastSeq names the
// last sequence delivered: a reconnecting client passes LastSeq()+1 to
// DialResume.
func ExampleDial() {
	srv, err := stream.NewServer("127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	defer srv.Close()

	c, err := stream.Dial(srv.Addr())
	if err != nil {
		panic(err)
	}
	defer c.Close()

	srv.BroadcastBatch([]osn.Event{{Type: osn.EvFriendRequest, At: 10, Actor: 7, Target: 9}})
	srv.BroadcastBatch([]osn.Event{{Type: osn.EvFriendAccept, At: 11, Actor: 9, Target: 7}})

	for n := 0; n < 2; {
		evs, err := c.RecvBatch()
		if err != nil {
			panic(err)
		}
		first := c.LastSeq() - uint64(len(evs)) + 1
		for i, ev := range evs {
			fmt.Printf("seq %d: %s %d->%d\n", first+uint64(i), ev.Type, ev.Actor, ev.Target)
		}
		n += len(evs)
	}
	// Output:
	// seq 1: friend_request 7->9
	// seq 2: friend_accept 9->7
}
