package service

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/machine"
	"repro/internal/pipeline"
)

func keyFor(s string) Key {
	b := newKeyBuilder("test")
	b.str(s)
	return b.sum()
}

func TestCacheHitMiss(t *testing.T) {
	c := NewCache(8)
	if _, ok := c.Get(keyFor("a")); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put(keyFor("a"), "va")
	v, ok := c.Get(keyFor("a"))
	if !ok || v.(string) != "va" {
		t.Fatalf("Get(a) = %v, %v", v, ok)
	}
	if c.Hits() != 1 || c.Misses() != 1 {
		t.Fatalf("hits/misses = %d/%d, want 1/1", c.Hits(), c.Misses())
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
}

func TestCacheKeyFraming(t *testing.T) {
	// Length prefixes must keep adjacent fields from aliasing.
	a := newKeyBuilder("k")
	a.str("ab")
	a.str("c")
	b := newKeyBuilder("k")
	b.str("a")
	b.str("bc")
	if a.sum() == b.sum() {
		t.Fatal(`key("ab","c") == key("a","bc"): fields alias`)
	}
}

func TestCacheEvictsLRU(t *testing.T) {
	c := NewCache(2)
	c.Put(keyFor("a"), 1)
	c.Put(keyFor("b"), 2)
	// Touch a so b is the least recently used.
	if _, ok := c.Get(keyFor("a")); !ok {
		t.Fatal("a missing")
	}
	c.Put(keyFor("c"), 3)
	if _, ok := c.Get(keyFor("b")); ok {
		t.Fatal("b should have been evicted (LRU)")
	}
	if _, ok := c.Get(keyFor("a")); !ok {
		t.Fatal("a should have survived (recently used)")
	}
	if _, ok := c.Get(keyFor("c")); !ok {
		t.Fatal("c should be present")
	}
	if c.Evictions() != 1 {
		t.Fatalf("Evictions = %d, want 1", c.Evictions())
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
}

func TestCachePutRefreshes(t *testing.T) {
	c := NewCache(2)
	c.Put(keyFor("a"), 1)
	c.Put(keyFor("b"), 2)
	c.Put(keyFor("a"), 10) // refresh: a becomes most recent, no eviction
	if c.Len() != 2 || c.Evictions() != 0 {
		t.Fatalf("Len/Evictions = %d/%d, want 2/0", c.Len(), c.Evictions())
	}
	c.Put(keyFor("c"), 3) // evicts b, the LRU
	if _, ok := c.Get(keyFor("b")); ok {
		t.Fatal("b should have been evicted")
	}
	if v, ok := c.Get(keyFor("a")); !ok || v.(int) != 10 {
		t.Fatalf("Get(a) = %v, %v; want refreshed 10", v, ok)
	}
}

// TestCacheConcurrent hammers the cache from many goroutines; meaningful
// under -race.
func TestCacheConcurrent(t *testing.T) {
	c := NewCache(16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := keyFor(fmt.Sprint(i % 32))
				if i%3 == 0 {
					c.Put(k, i)
				} else {
					c.Get(k)
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Len() > 16 {
		t.Fatalf("Len = %d exceeds max 16", c.Len())
	}
}

// outputNeutral names the exported fields of pipeline.Config and (under
// "Replication.") replicate.Options that stay out of the result-cache key,
// each with the reason the compiled result cannot depend on it.
var outputNeutral = map[string]string{
	"Jobs":                      "output identical for every value (pipeline.TestOptimizeJobsDeterministic)",
	"Tracer":                    "telemetry hook",
	"OnViolation":               "telemetry hook; the violations also land in Stats.Verify",
	"Replication.Tracer":        "telemetry hook",
	"Replication.OnCertificate": "telemetry hook; Config.TV installs the validator",
}

// TestKeyCoversConfig walks every exported field of pipeline.Config and
// replicate.Options: changing it must change the compile key unless the
// field is listed in outputNeutral. A field added later fails here until
// it is hashed by keyBuilder.config or classified as output-neutral.
func TestKeyCoversConfig(t *testing.T) {
	base, err := pipeline.Resolve(pipeline.Config{}, "", "", "")
	if err != nil {
		t.Fatal(err)
	}
	baseKey := compileKey(tinySrc, base)
	seen := map[string]bool{}
	check := func(name string, c *pipeline.Config, fv reflect.Value) {
		t.Helper()
		neutral := outputNeutral[name] != ""
		seen[name] = neutral
		switch fv.Kind() {
		case reflect.Bool:
			fv.SetBool(!fv.Bool())
		case reflect.Int, reflect.Int64:
			fv.SetInt(fv.Int() + 1)
		case reflect.Uint8:
			fv.SetUint(fv.Uint() + 1)
		case reflect.Pointer:
			if fv.Type() != reflect.TypeOf(machine.SPARC) {
				t.Fatalf("%s: unclassified field type %s", name, fv.Type())
			}
			fv.Set(reflect.ValueOf(machine.SPARC))
		case reflect.Func:
			fv.Set(reflect.MakeFunc(fv.Type(), func([]reflect.Value) []reflect.Value { return nil }))
		default:
			if !neutral {
				t.Fatalf("%s: unclassified field type %s", name, fv.Type())
			}
			return
		}
		changed := compileKey(tinySrc, *c) != baseKey
		switch {
		case neutral && changed:
			t.Errorf("%s is listed output-neutral but changes the key", name)
		case !neutral && !changed:
			t.Errorf("%s does not reach the cache key: hash it in keyBuilder.config or list it in outputNeutral", name)
		}
	}
	ct := reflect.TypeOf(base)
	for i := 0; i < ct.NumField(); i++ {
		f := ct.Field(i)
		if !f.IsExported() || f.Name == "Replication" {
			continue
		}
		c := base
		check(f.Name, &c, reflect.ValueOf(&c).Elem().Field(i))
	}
	rt := reflect.TypeOf(base.Replication)
	for i := 0; i < rt.NumField(); i++ {
		f := rt.Field(i)
		if !f.IsExported() {
			continue
		}
		c := base
		check("Replication."+f.Name, &c, reflect.ValueOf(&c.Replication).Elem().Field(i))
	}
	for name := range outputNeutral {
		if !seen[name] {
			t.Errorf("outputNeutral lists %s, which is not an exported field", name)
		}
	}
}
