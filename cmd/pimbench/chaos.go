package main

// Crash-restart chaos mode (-restart-chaos): proof the write-ahead log
// works. It re-execs this binary as a durable serving child
// (-restart-chaos-child), SIGKILLs it at random points and verifies
// bit-exact recovery after every kill — the internal/restart protocol,
// runnable against real disks and flag-chosen scales rather than the
// test suite's fixed small ones.

import (
	"fmt"
	"os"
	"os/exec"

	"github.com/pimlab/pimtrie"
	"github.com/pimlab/pimtrie/internal/restart"
	"github.com/pimlab/pimtrie/internal/wal"
)

// chaosIndex is the shared index constructor of the chaos parent and
// child: both sides must rebuild identically for recovery to be
// comparable.
func chaosIndex(p int, seed int64) func() *pimtrie.Index {
	return func() *pimtrie.Index {
		return pimtrie.New(p, pimtrie.Options{Seed: seed, Recoverable: true})
	}
}

// runChaosChild is the -restart-chaos-child body: serve durable writes
// from dir until the parent kills us.
func runChaosChild(dir string, p int, seed int64, syncPolicy string) error {
	if dir == "" {
		return fmt.Errorf("-restart-chaos-child requires -wal-dir")
	}
	policy, err := wal.ParseSyncPolicy(syncPolicy)
	if err != nil {
		return err
	}
	return restart.RunChild(dir, uint64(seed), policy, chaosIndex(p, seed))
}

// runChaosParent is the -restart-chaos driver: rounds spawn/kill/verify
// cycles against dir (a temp dir when -wal-dir is unset).
func runChaosParent(rounds int, dir string, p int, seed int64, syncPolicy string) error {
	if dir == "" {
		d, err := os.MkdirTemp("", "pimbench-chaos-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(d)
		dir = d
	}
	if _, err := wal.ParseSyncPolicy(syncPolicy); err != nil {
		return err
	}
	spawn := func(d string) *exec.Cmd {
		return exec.Command(os.Args[0], "-restart-chaos-child",
			"-wal-dir", d,
			"-p", fmt.Sprint(p),
			"-seed", fmt.Sprint(seed),
			"-wal-sync", syncPolicy)
	}
	logf := func(format string, args ...any) { fmt.Printf(format+"\n", args...) }
	final, err := restart.RunParent(restart.Config{
		Dir:      dir,
		Seed:     uint64(seed),
		Rounds:   rounds,
		NewIndex: chaosIndex(p, seed),
		Logf:     logf,
	}, spawn)
	if err != nil {
		return err
	}
	fmt.Printf("restart-chaos: %d ops survived %d kills bit-identically\n", final, rounds)
	return nil
}
