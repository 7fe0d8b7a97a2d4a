package shard

import (
	"context"
	"net"
	"testing"
	"time"
)

// TestWorkerStopsPromptlyOnCancel: canceling a connected worker's context
// returns Run within a second. The session's blocking read must be
// unblocked by the cancel itself, not by the heartbeat read deadline
// (Heartbeat × HeartbeatMiss, 6 s at the defaults) — otherwise a SIGTERM'd
// rcpnworker lingers for seconds while its coordinator stays connected.
func TestWorkerStopsPromptlyOnCancel(t *testing.T) {
	quiet := func(string, ...any) {}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	coord := NewCoordinator(CoordinatorConfig{Logf: quiet})
	go coord.Serve(ln) //nolint:errcheck // returns when ln closes
	defer func() { coord.Close(); ln.Close() }()

	w := NewWorker(WorkerConfig{Node: "w1", Slots: 1, Heartbeat: 2 * time.Second, Logf: quiet})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- w.Run(ctx, ln.Addr().String()) }()
	waitLive(t, coord, 1)

	cancel()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Error("worker Run still blocked 1s after cancel")
		<-done
	}
}
