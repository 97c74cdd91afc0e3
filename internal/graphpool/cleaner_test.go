package graphpool

import (
	"testing"
	"time"
)

func TestCleanerBackgroundPass(t *testing.T) {
	p := New()
	id := p.OverlaySnapshot(buildSnapshot(20), 1)
	c := NewCleaner(p, time.Millisecond)
	c.Start()
	c.Start() // double start is a no-op
	defer c.Stop()

	if err := p.Release(id); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if p.Stats().PoolNodes == 0 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if n := p.Stats().PoolNodes; n != 0 {
		t.Errorf("background cleaner left %d nodes", n)
	}
	if c.TotalCleaned() == 0 {
		t.Error("TotalCleaned = 0")
	}
	c.Stop()
	c.Stop() // double stop is a no-op
}

func TestCleanerForceClean(t *testing.T) {
	p := New()
	id := p.OverlaySnapshot(buildSnapshot(10), 1)
	c := NewCleaner(p, time.Hour) // never fires on its own
	p.Release(id)
	if n := c.ForceClean(); n == 0 {
		t.Error("ForceClean removed nothing")
	}
	if p.Stats().PoolNodes != 0 {
		t.Error("pool not emptied")
	}
}

func TestCleanerOnPass(t *testing.T) {
	p := New()
	c := NewCleaner(p, time.Hour)
	var passes, evicted int
	c.OnPass(func(d time.Duration, n int) {
		if d < 0 {
			t.Errorf("negative pass duration %v", d)
		}
		passes++
		evicted += n
	})
	p.Release(p.OverlaySnapshot(buildSnapshot(10), 1))
	n := c.ForceClean()
	c.ForceClean() // an idle pass is observed too
	if passes != 2 || evicted != n || int64(n) != c.TotalCleaned() {
		t.Errorf("observed %d passes evicting %d; ForceClean evicted %d, total %d", passes, evicted, n, c.TotalCleaned())
	}
}
