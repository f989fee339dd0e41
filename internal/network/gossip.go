package network

import (
	"math/rand/v2"
	"sync"
	"time"

	"sebdb/internal/types"
)

// Peer is the surface the gossiper pulls from. A peer may live in the
// same process (another node object) or behind a TCP client stub.
type Peer interface {
	// ID names the peer for membership bookkeeping.
	ID() string
	// Height returns the peer's chain height.
	Height() (uint64, error)
	// BlockAt fetches the block at the given height.
	BlockAt(h uint64) (*types.Block, error)
}

// Applier is the local sink for fetched blocks (core.Engine).
type Applier interface {
	Height() uint64
	ApplyBlock(b *types.Block) error
}

// Gossiper runs periodic anti-entropy: each round it asks one random
// peer for its height and pulls any blocks the local chain is missing,
// in order. Push-style propagation falls out of everyone pulling at
// gossip frequency — the classic epidemic broadcast used for block
// propagation and data recovery (§III-B).
type Gossiper struct {
	local    Applier
	interval time.Duration

	mu      sync.Mutex
	peers   []Peer
	stopCh  chan struct{}
	doneCh  chan struct{}
	running bool
	rng     *rand.Rand

	// failures counts per-peer consecutive errors; a peer failing
	// FailureThreshold rounds in a row is considered dead and dropped
	// (the failure-detection role of gossip membership).
	failures map[string]int
}

// FailureThreshold is how many consecutive failed rounds evict a peer.
const FailureThreshold = 3

// NewGossiper builds a gossiper over the local applier. seed fixes the
// peer-selection sequence, so tests and simulations can reproduce a
// gossip schedule exactly; a node passes a random one.
func NewGossiper(local Applier, interval time.Duration, seed uint64) *Gossiper {
	if interval <= 0 {
		interval = 100 * time.Millisecond
	}
	return &Gossiper{
		local:    local,
		interval: interval,
		rng:      rand.New(rand.NewPCG(seed, 0)),
		failures: make(map[string]int),
	}
}

// AddPeer registers a peer for anti-entropy.
func (g *Gossiper) AddPeer(p Peer) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.peers = append(g.peers, p)
	mPeers.Add(1)
}

// PeerIDs lists live peers.
func (g *Gossiper) PeerIDs() []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]string, len(g.peers))
	for i, p := range g.peers {
		out[i] = p.ID()
	}
	return out
}

// Start launches the gossip loop.
func (g *Gossiper) Start() {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.running {
		return
	}
	g.running = true
	g.stopCh = make(chan struct{})
	g.doneCh = make(chan struct{})
	go g.loop()
}

// Stop terminates the gossip loop.
func (g *Gossiper) Stop() {
	g.mu.Lock()
	if !g.running {
		g.mu.Unlock()
		return
	}
	g.running = false
	close(g.stopCh)
	g.mu.Unlock()
	<-g.doneCh
}

func (g *Gossiper) loop() {
	defer close(g.doneCh)
	ticker := time.NewTicker(g.interval)
	defer ticker.Stop()
	for {
		select {
		case <-g.stopCh:
			return
		case <-ticker.C:
			g.Round()
		}
	}
}

// Round performs one anti-entropy exchange with a random peer. It is
// exported so tests and simulations can drive gossip deterministically.
func (g *Gossiper) Round() {
	mRounds.Inc()
	g.mu.Lock()
	if len(g.peers) == 0 {
		g.mu.Unlock()
		return
	}
	i := g.rng.IntN(len(g.peers))
	peer := g.peers[i]
	g.mu.Unlock()

	if err := g.pullFrom(peer); err != nil {
		g.noteFailure(peer)
		return
	}
	g.mu.Lock()
	g.failures[peer.ID()] = 0
	g.mu.Unlock()
}

func (g *Gossiper) pullFrom(peer Peer) error {
	mMsgsOut.Inc()
	ph, err := peer.Height()
	if err != nil {
		return err
	}
	for h := g.local.Height(); h < ph; h = g.local.Height() {
		mMsgsOut.Inc()
		b, err := peer.BlockAt(h)
		if err != nil {
			return err
		}
		if err := g.local.ApplyBlock(b); err != nil {
			return err
		}
		mBlocksIn.Inc()
	}
	return nil
}

func (g *Gossiper) noteFailure(peer Peer) {
	g.mu.Lock()
	defer g.mu.Unlock()
	mFailures.Inc()
	id := peer.ID()
	g.failures[id]++
	if g.failures[id] < FailureThreshold {
		return
	}
	for i, p := range g.peers {
		if p.ID() == id {
			g.peers = append(g.peers[:i], g.peers[i+1:]...)
			mPeers.Add(-1)
			break
		}
	}
	delete(g.failures, id)
}

// SyncOnce pulls from every peer once, used for catch-up on start.
func (g *Gossiper) SyncOnce() {
	g.mu.Lock()
	peers := append([]Peer(nil), g.peers...)
	g.mu.Unlock()
	for _, p := range peers {
		if err := g.pullFrom(p); err != nil {
			g.noteFailure(p)
		}
	}
}
