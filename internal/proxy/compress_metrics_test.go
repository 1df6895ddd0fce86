package proxy

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/obs"
)

// TestObserveCompress: one artifact build lands its input bytes on the
// right per-scheme counter, feeds the throughput histogram, and surfaces in
// both the Stats snapshot and the registry text the admin plane serves; a
// build that ran no codec observes nothing.
func TestObserveCompress(t *testing.T) {
	reg := obs.NewRegistry()
	m := newMetrics(reg)

	m.observeCompress(codec.Gzip, 1<<20, 100*time.Millisecond) // 10 MiB/s
	m.observeCompress(codec.Gzip, 1<<20, 50*time.Millisecond)
	m.observeCompress(codec.Bzip2, 4096, time.Millisecond)
	m.observeCompress(codec.Gzip, 123, 0)              // zero duration: count bytes, skip rate
	m.observeCompress(codec.Zlib, 0, time.Millisecond) // a build that ran no codec: nothing

	s := m.snapshot()
	if got := s.CompressInputBytes["gzip"]; got != 2<<20+123 {
		t.Fatalf("gzip input bytes = %d, want %d", got, 2<<20+123)
	}
	if got := s.CompressInputBytes["bzip2"]; got != 4096 {
		t.Fatalf("bzip2 input bytes = %d, want 4096", got)
	}
	if got := s.CompressInputBytes["zlib"]; got != 0 {
		t.Fatalf("zlib input bytes = %d, want 0", got)
	}

	hs := m.compressRate.Snapshot()
	var samples int64
	for _, c := range hs.Counts {
		samples += c
	}
	if samples != 3 {
		t.Fatalf("throughput histogram holds %d samples, want 3", samples)
	}

	var sb strings.Builder
	if err := obs.WritePrometheus(&sb, reg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		"server_compress_bytes_per_second",
		"server_compress_input_bytes_total_gzip",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("registry text missing %q:\n%s", want, text)
		}
	}
	if !strings.Contains(s.String(), "compress input:") {
		t.Fatalf("Stats.String() missing compress line:\n%s", s.String())
	}
}

// TestStatsAddSumsEveryField fills every numeric field, latency bucket and
// map entry of two snapshots with distinct values, by reflection, and checks
// that Add summed each one: a field given to Stats and not to Add fails
// here, as CompressQueueDepth did for the sum the harness once kept.
func TestStatsAddSumsEveryField(t *testing.T) {
	fill := func(next int64) Stats {
		var s Stats
		v := reflect.ValueOf(&s).Elem()
		for i := 0; i < v.NumField(); i++ {
			switch f := v.Field(i); f.Kind() {
			case reflect.Int, reflect.Int64:
				next++
				f.SetInt(next)
			case reflect.Slice:
				s.Latency = make([]LatencyBucket, numLatencyBounds+1)
				for j := range s.Latency {
					next++
					s.Latency[j].Count = next
				}
				for j, b := range latencyBounds {
					s.Latency[j].UpTo = b
				}
			case reflect.Map:
				s.CompressInputBytes = map[string]int64{}
				for _, sc := range compressSchemes {
					next++
					s.CompressInputBytes[sc.String()] = next
				}
			default:
				t.Fatalf("Stats.%s is a %s, which this test cannot fill", v.Type().Field(i).Name, f.Kind())
			}
		}
		return s
	}
	a, b := fill(0), fill(1000)
	a0, b0 := fill(0), fill(1000)
	delete(a.CompressInputBytes, "zlib") // a key only one side has
	delete(a0.CompressInputBytes, "zlib")
	sum := a.Add(b)
	if !reflect.DeepEqual(a, a0) || !reflect.DeepEqual(b, b0) {
		t.Error("Add wrote to an operand")
	}
	va, vb, vs := reflect.ValueOf(a), reflect.ValueOf(b), reflect.ValueOf(sum)
	for i := 0; i < vs.NumField(); i++ {
		if k := vs.Field(i).Kind(); k != reflect.Int && k != reflect.Int64 {
			continue
		}
		if got, want := vs.Field(i).Int(), va.Field(i).Int()+vb.Field(i).Int(); got != want {
			t.Errorf("%s = %d, want %d", vs.Type().Field(i).Name, got, want)
		}
	}
	if len(sum.Latency) != len(a.Latency) || len(sum.CompressInputBytes) != len(b.CompressInputBytes) {
		t.Fatalf("%d buckets and %d schemes, want %d and %d", len(sum.Latency), len(sum.CompressInputBytes), len(a.Latency), len(b.CompressInputBytes))
	}
	for j, bk := range sum.Latency {
		if bk.UpTo != a.Latency[j].UpTo || bk.Count != a.Latency[j].Count+b.Latency[j].Count {
			t.Errorf("bucket %d = %+v, want %v and %d", j, bk, a.Latency[j].UpTo, a.Latency[j].Count+b.Latency[j].Count)
		}
	}
	for k, v := range sum.CompressInputBytes {
		if want := a.CompressInputBytes[k] + b.CompressInputBytes[k]; v != want {
			t.Errorf("CompressInputBytes[%s] = %d, want %d", k, v, want)
		}
	}
	// The harness starts its sum from the zero value.
	if got := (Stats{}).Add(b); !reflect.DeepEqual(got, b) {
		t.Errorf("the zero value plus b = %+v, want b", got)
	}
}
