package core

import (
	"fmt"
	"testing"
)

func TestHuntScenarioSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip()
	}
	for seed := int64(0); seed < 300; seed++ {
		cfg := Config{MaxRedo: 60}
		if seed%5 == 0 {
			cfg.HashWidth = 18 // exercise the collision machinery too
		}
		p := []int{1, 4, 9}[seed%3]
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("seed %d (%+v) panicked: %v", seed, cfg, r)
				}
			}()
			if !scenarioCfg(seed, p, cfg) {
				t.Fatalf("seed %d (p=%d %+v) disagreed with oracle", seed, p, cfg)
			}
		}()
	}
	fmt.Println("300 seeds ok")
}
