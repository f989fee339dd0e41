package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"sebdb/internal/clock"
	"sebdb/internal/core"
	"sebdb/internal/node"
	"sebdb/internal/obs"
)

// FigRecovery — not a paper figure: restart and fresh-node bootstrap
// time as the chain grows, with and without the checkpoint subsystem.
// A full-replay restart re-derives every index from the block log, so
// it grows linearly with chain height; a checkpointed restart seeds the
// derived state from the newest snapshot and replays only the
// post-checkpoint suffix. The same split shows up for a fresh node:
// fast-sync streams the peer's block bodies plus its checkpoint and
// opens without replaying, while a plain sync streams the same bodies
// and then pays the full rebuild.
func FigRecovery(dir string, scale float64) (*Table, error) {
	t := &Table{
		Title:  "Fig. 24 — recovery: restart and fresh-node sync time vs chain height",
		Header: []string{"blocks", "restart/ckpt", "restart/replay", "sync/fast", "sync/replay"},
		Note:   "restart/ckpt should stay near-flat while restart/replay grows; both sync columns stream every block, but sync/fast skips the index rebuild",
	}
	base := scaled(4_000, scale, 200)
	for _, blocks := range []int{base / 4, base / 2, base} {
		row, err := recoveryRow(dir, blocks)
		if err != nil {
			return nil, fmt.Errorf("fig24 at %d blocks: %w", blocks, err)
		}
		t.AddRow(row...)
	}
	return t, nil
}

// recoveryRow measures one chain height: it builds (or reuses) a
// checkpointed chain, times a checkpoint-seeded and a full-replay
// restart, then bootstraps two throwaway nodes from it — one by
// fast-sync, one by streaming blocks into a fresh engine.
func recoveryRow(dir string, blocks int) ([]string, error) {
	cfg := core.Config{
		Dir:            filepath.Join(dir, fmt.Sprintf("figr-%d", blocks)),
		HistogramDepth: 100,
		DefaultSender:  "bench",
	}
	e, err := core.Open(cfg)
	if err != nil {
		return nil, err
	}
	if e.Height() == 0 {
		err = LoadRange(e, GenConfig{
			Blocks: blocks, TxPerBlock: 20, ResultSize: blocks,
			Dist: Uniform, Seed: 1,
		})
		if err == nil {
			err = e.CreateAuthIndex("donate", "amount")
		}
	}
	if err == nil {
		err = e.WriteCheckpoint()
	}
	height := e.Height() // DDL blocks ride the chain, so height > blocks
	if err == nil {
		err = e.Close()
	} else {
		e.Close() //sebdb:ignore-err best-effort cleanup on the error path
	}
	if err != nil {
		return nil, err
	}

	// Restart with the checkpoint: Open seeds derived state from the
	// snapshot and replays only the (empty) suffix.
	start := time.Now()
	e, err = core.Open(cfg)
	dCkpt := time.Since(start)
	if err != nil {
		return nil, err
	}
	if e.Height() != height {
		e.Close() //sebdb:ignore-err best-effort cleanup on the error path
		return nil, fmt.Errorf("checkpointed restart at height %d, want %d", e.Height(), height)
	}

	// Bootstrap two fresh nodes from the restarted engine, served as an
	// in-process peer so the figure measures recovery, not socket noise.
	src := node.New(e)
	peer := &node.Local{Node: src, Name: "src"}
	dFast, err := timeFastSync(dir, peer, height)
	var dRepl time.Duration
	if err == nil {
		dRepl, err = timeReplaySync(dir, peer, height)
	}
	if err == nil {
		err = src.Close()
	} else {
		src.Close() //sebdb:ignore-err best-effort cleanup on the error path
	}
	if err == nil {
		err = e.Close()
	} else {
		e.Close() //sebdb:ignore-err best-effort cleanup on the error path
	}
	if err != nil {
		return nil, err
	}

	// Restart again with the checkpoint ignored: the engine rebuilds
	// every index by replaying the whole chain.
	full := cfg
	full.DisableCheckpointLoad = true
	start = time.Now()
	e, err = core.Open(full)
	dFull := time.Since(start)
	if err != nil {
		return nil, err
	}
	if err := e.Close(); err != nil {
		return nil, err
	}
	return []string{
		fmt.Sprintf("%d", blocks), ms(dCkpt), ms(dFull), ms(dFast), ms(dRepl),
	}, nil
}

// timeFastSync bootstraps a throwaway node from the peer's checkpoint
// and times the transfer plus the checkpoint-seeded open.
func timeFastSync(dir string, peer node.QueryNode, height uint64) (time.Duration, error) {
	syncDir, err := os.MkdirTemp(dir, "figr-fast-*")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(syncDir) //sebdb:ignore-err throwaway bootstrap directory

	reg := obs.NewRegistry(clock.UnixMicro)
	start := time.Now()
	if _, err := node.FastSync(syncDir, peer, reg, nil); err != nil {
		return 0, err
	}
	e, err := core.Open(core.Config{Dir: syncDir, HistogramDepth: 100, Obs: reg})
	if err != nil {
		return 0, err
	}
	d := time.Since(start)
	defer e.Close() //sebdb:ignore-err throwaway engine; reads only
	if e.Height() != height {
		return 0, fmt.Errorf("fast-synced height %d, want %d", e.Height(), height)
	}
	if n := reg.Counter("sebdb_snapshot_suffix_blocks").Value(); n != 0 {
		return 0, fmt.Errorf("fast-synced open replayed %d blocks", n)
	}
	return d, nil
}

// timeReplaySync bootstraps a throwaway node without the checkpoint:
// it streams the peer's blocks into a fresh engine and then builds the
// same user indexes the checkpoint would have delivered — the
// pre-checkpoint baseline for reaching an equivalent serving state.
func timeReplaySync(dir string, peer node.QueryNode, height uint64) (time.Duration, error) {
	syncDir, err := os.MkdirTemp(dir, "figr-repl-*")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(syncDir) //sebdb:ignore-err throwaway bootstrap directory

	start := time.Now()
	e, err := core.Open(core.Config{Dir: syncDir, HistogramDepth: 100})
	if err != nil {
		return 0, err
	}
	defer e.Close() //sebdb:ignore-err throwaway engine; reads only
	for h := uint64(0); h < height; h++ {
		b, err := peer.BlockAt(h)
		if err != nil {
			return 0, err
		}
		if err := e.ApplyBlock(b); err != nil {
			return 0, err
		}
	}
	if err := e.CreateIndex("donate", "amount"); err != nil {
		return 0, err
	}
	if err := e.CreateAuthIndex("donate", "amount"); err != nil {
		return 0, err
	}
	d := time.Since(start)
	if e.Height() != height {
		return 0, fmt.Errorf("replay-synced height %d, want %d", e.Height(), height)
	}
	return d, nil
}
