package network

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"sebdb/internal/types"
)

// TestGossipLifecycleStress hammers every exported Gossiper method from
// concurrent goroutines while the source chain keeps growing, so the
// race detector can see any unguarded state. Concurrent pulls may make
// a peer look flaky (two rounds racing to apply the same height), so
// membership is allowed to churn; what must hold is that the local
// chain stays a consistent prefix and a quiet sync still converges.
func TestGossipLifecycleStress(t *testing.T) {
	source := chainOf("source", 3)
	local := &memChain{id: "local"}
	g := NewGossiper(applierView{local}, time.Millisecond, 1)
	g.AddPeer(source)

	const (
		workers = 4
		iters   = 40
	)
	var wg sync.WaitGroup

	// Grow the source chain under gossip.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			source.mu.Lock()
			prev := &source.blocks[len(source.blocks)-1].Header
			source.blocks = append(source.blocks, types.NewBlock(prev, nil, int64(100+i), "source"))
			source.mu.Unlock()
		}
	}()

	// Flap the background loop.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			g.Start()
			g.Stop()
		}
	}()

	// Churn membership: flaky peers join and get evicted while rounds
	// run against them.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			g.AddPeer(&memChain{id: fmt.Sprintf("dead%d", i), bad: true})
			g.PeerIDs()
		}
	}()

	// Pull rounds from several goroutines at once.
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				g.Round()
				if i%8 == 0 {
					g.SyncOnce()
				}
			}
		}()
	}
	wg.Wait()
	g.Stop()

	// The local chain never overshoots the source and stays dense.
	if lh, sh := local.localHeight(), source.localHeight(); lh > sh {
		t.Errorf("local height %d overshot source height %d", lh, sh)
	}
	for i, b := range local.blocks {
		if b.Header.Height != uint64(i) {
			t.Fatalf("local chain has a gap: block %d at height %d", i, b.Header.Height)
		}
	}

	// The source may have been evicted by racing rounds; a fresh
	// gossiper over the same local chain must still converge.
	g2 := NewGossiper(applierView{local}, time.Millisecond, 2)
	g2.AddPeer(source)
	g2.SyncOnce()
	if lh, sh := local.localHeight(), source.localHeight(); lh != sh {
		t.Errorf("after quiet sync local height = %d, source = %d", lh, sh)
	}
}
