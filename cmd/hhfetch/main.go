// Command hhfetch is the handheld-side client: it downloads a file from a
// proxyd instance with a chosen scheme and transfer mode, verifies the
// content, and reports the wire statistics together with the simulated
// iPAQ energy estimate for the transfer at the chosen link rate.
//
// Usage:
//
//	hhfetch -addr 127.0.0.1:7070 -list
//	hhfetch -addr 127.0.0.1:7070 -name nes96.xml -scheme gzip -mode selective -rate 11
//	hhfetch -addr 127.0.0.1:7070 -name nes96.xml -trace
//
// With -trace, the fetch's phase timeline (dial, header, recv,
// decompress, verify, plus backoff/resume on retries) prints as JSON
// last; each phase carries the modeled joules attributed to it, and the
// phase total equals the whole-transfer model estimate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"repro"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "hhfetch:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr       = flag.String("addr", "127.0.0.1:7070", "proxy address")
		list       = flag.Bool("list", false, "list server files and exit")
		name       = flag.String("name", "", "file to fetch")
		schemeName = flag.String("scheme", "gzip", "scheme: gzip, compress, bzip2, zlib")
		modeName   = flag.String("mode", "selective", "mode: raw, precompressed, ondemand, selective")
		rateMbps   = flag.Float64("rate", 11, "nominal link rate for the energy estimate: 11, 5.5, 2, 1")
		outPath    = flag.String("o", "", "write fetched content to this file")
		timeout    = flag.Duration("timeout", 2*time.Minute, "per-attempt deadline (0 disables)")
		retries    = flag.Int("retries", 3, "retry budget for busy servers and transient link failures")
		retryBase  = flag.Duration("retry-base", 50*time.Millisecond, "initial retry backoff (doubles per attempt, with jitter)")
		maxBytes   = flag.Int64("max-bytes", 0, "refuse transfers whose claimed size exceeds this (0 = 1 GiB default)")
		trace      = flag.Bool("trace", false, "print the fetch's phase/energy span as JSON")
		eventsPath = flag.String("events", "", "append the fetch's wide event as JSONL to this file")
	)
	flag.Parse()

	rate, ok := repro.RateForMbps(*rateMbps)
	if !ok {
		return fmt.Errorf("unsupported rate %.1f", *rateMbps)
	}
	cli := repro.NewProxyClient(*addr)
	defer cli.Close()
	cli.Timeout = *timeout
	cli.MaxRetries = *retries
	cli.RetryBaseDelay = *retryBase
	cli.MaxFetchBytes = *maxBytes
	cli.Rate = rate
	var tracer *repro.Tracer
	if *trace {
		tracer = repro.NewTracer(4)
		cli.Tracer = tracer
	}
	if *eventsPath != "" {
		f, ferr := os.OpenFile(*eventsPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if ferr != nil {
			return ferr
		}
		sink := repro.NewEventSink(f, 0, 0)
		defer func() {
			_ = sink.Close()
			_ = f.Close()
		}()
		cli.Events = sink
	}
	if *list {
		names, err := cli.List()
		if err != nil {
			return err
		}
		for _, n := range names {
			fmt.Println(n)
		}
		return nil
	}
	if *name == "" {
		return fmt.Errorf("pass -name or -list")
	}
	scheme, err := repro.ParseScheme(*schemeName)
	if err != nil {
		return err
	}
	mode, err := parseMode(*modeName)
	if err != nil {
		return err
	}
	content, stats, err := cli.Fetch(*name, scheme, mode)
	if err != nil {
		return err
	}
	if *outPath != "" {
		if err := os.WriteFile(*outPath, content, 0o644); err != nil {
			return err
		}
	}

	fmt.Printf("fetched %q: %d bytes raw, %d on the wire (factor %.3f)\n",
		*name, stats.RawBytes, stats.WireBytes, stats.Factor)
	if stats.Attempts > 1 {
		fmt.Printf("link was hostile: %d attempts, %d bytes resumed instead of refetched\n",
			stats.Attempts, stats.ResumedBytes)
	}
	fmt.Printf("blocks: %d total, %d compressed; host decompress wall %.3f ms\n",
		stats.BlocksTotal, stats.BlocksCompressed, stats.DecompressWall.Seconds()*1000)

	plain := rate.ParamsFor(scheme).DownloadEnergy(float64(stats.RawBytes) / 1e6)
	// The charge the client's trace span carries for this transfer.
	this := stats.Energy.Total()
	fmt.Printf("iPAQ energy estimate at %.1f Mb/s: plain %.4f J, this transfer %.4f J (%.1f%% saving)\n",
		*rateMbps, plain, this, (1-this/plain)*100)

	if *trace {
		spans := tracer.Snapshot()
		if len(spans) > 0 {
			span := spans[len(spans)-1]
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(span); err != nil {
				return err
			}
		}
	}
	return nil
}

func parseMode(name string) (repro.ProxyClientMode, error) {
	switch name {
	case "raw":
		return repro.ProxyRaw, nil
	case "precompressed":
		return repro.ProxyPrecompressed, nil
	case "ondemand":
		return repro.ProxyOnDemand, nil
	case "selective":
		return repro.ProxySelective, nil
	default:
		return 0, fmt.Errorf("unknown mode %q", name)
	}
}
