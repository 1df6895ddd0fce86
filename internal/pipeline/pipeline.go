// Package pipeline executes complete simulated download experiments: it
// compresses real bytes with the real codecs, then replays the transfer on
// the simulated device/link stack (the rig) in one of the paper's modes —
// plain download, download-then-decompress (optionally with the radio put
// to sleep), interleaved block-by-block decompression (Section 4.1),
// selective block-adaptive streams (Section 4.3), and compression on
// demand with server-side overlap (Section 5) — or in the upload
// direction, and reads the recorded current trace back the way the paper's
// multimeter did.
package pipeline

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/codec"
	"repro/internal/device"
	"repro/internal/energy"
	"repro/internal/selective"
	"repro/internal/wlan"
)

// Mode selects the experiment execution strategy.
type Mode int

// Experiment modes.
const (
	// ModePlain downloads the raw bytes with no compression.
	ModePlain Mode = iota + 1
	// ModeSequential downloads the compressed stream, then decompresses.
	ModeSequential
	// ModeInterleaved decompresses block i while downloading block i+1.
	ModeInterleaved
)

// rawCopyCostPerMB is the CPU time to move a raw (uncompressed) selective
// block out of the receive buffer.
const rawCopyCostPerMB = 0.02

// blockRaw is the interleaving granularity in raw bytes (the 0.128 MB
// compression buffer).
const blockRaw = selective.BlockSize

// Spec describes one experiment.
type Spec struct {
	// Data is the raw file content.
	Data []byte
	// Scheme is the compression scheme (ignored for ModePlain).
	Scheme codec.Scheme
	// Level is the codec level; 0 selects the paper's setting.
	Level int
	// Mode is the execution strategy.
	Mode Mode
	// Selective wraps the data in the block-adaptive container of
	// Section 4.3 instead of one whole-file stream.
	Selective bool
	// Decider drives selective decisions (defaults to the paper's Eq. 6).
	Decider selective.Decider
	// OnDemand makes the proxy compress during the transfer (Section 5):
	// block i+1 is compressed while block i transmits, and the client may
	// stall when the server falls behind. Stall windows are granted to the
	// decompression worker, so waiting burns no extra energy beyond idle.
	OnDemand bool
	// OnDemandWholeFile models the stock gzip/compress tools, which (as
	// the paper measured them) compress the entire file before the
	// transfer starts instead of pipelining block by block; the revised
	// zlib of Section 5 uses the block pipeline instead.
	OnDemandWholeFile bool
	// Rate is the link configuration (defaults to 11 Mb/s).
	Rate energy.RateConfig
	// PowerSave enables the WaveLAN power-saving mode for the whole run.
	PowerSave bool
	// SleepDuringDecompress puts the radio to sleep for the decompression
	// phase (meaningful for ModeSequential; the paper uses it for bzip2).
	SleepDuringDecompress bool
	// MeterRate is the multimeter sampling rate (samples/s; default 300).
	MeterRate float64
	// CaptureTrace records the device's current trace in the result, for
	// timeline rendering (Figures 3-4 style).
	CaptureTrace bool

	// upload reverses the direction (set by RunUpload): the handheld
	// compresses and sends. ModePlain sends the raw bytes, ModeInterleaved
	// compresses block i+1 inside the idle windows of block i's transmission.
	upload bool
}

// Result reports everything the paper's figures need.
type Result struct {
	RawBytes  int
	WireBytes int
	Factor    float64

	TransferSeconds   time.Duration // setup + on-air time (incl. stalls)
	TotalSeconds      time.Duration // until last byte decompressed
	DecompressSeconds time.Duration // CPU-busy decompression time
	StallSeconds      time.Duration // link idle waiting for the server

	MeteredEnergyJ float64 // avg-current reading, as the paper measures
	ExactEnergyJ   float64 // exact trace integral
	AvgCurrentMA   float64
	MaxCurrentMA   float64

	BlocksTotal      int
	BlocksCompressed int

	// Trace is the device current trace (only when Spec.CaptureTrace).
	Trace []device.Segment
}

// wireBlock is one transfer unit with its decompression cost and, for
// on-demand runs, the earliest time the server can start sending it.
type wireBlock struct {
	wireBytes int
	work      time.Duration
	readyAt   time.Duration
}

// Run executes the experiment.
func Run(spec Spec) (Result, error) {
	if spec.Mode == 0 {
		return Result{}, errors.New("pipeline: mode not set")
	}
	if spec.Mode < 0 || spec.Mode > ModeInterleaved {
		return Result{}, fmt.Errorf("pipeline: unknown mode %d", spec.Mode)
	}
	if spec.Decider == nil {
		spec.Decider = selective.PaperDecider{}
	}
	build := buildBlocks
	if spec.upload {
		build = buildUploadBlocks
	}
	blocks, wireBytes, stats, err := build(spec)
	if err != nil {
		return Result{}, err
	}
	r, err := newRig(spec.Rate)
	if err != nil {
		return Result{}, err
	}
	r.dev.SetPowerSave(spec.PowerSave)

	switch {
	case spec.upload:
		r.upload(blocks, wireBytes)
	case spec.Mode == ModePlain:
		r.link.Download(wireBytes, nil, nil, r.drain)
	case spec.Mode == ModeSequential:
		r.link.Download(wireBytes, nil, nil, func() {
			r.transferEnd = r.k.Now()
			if spec.SleepDuringDecompress {
				// The paper uses the hardware power-saving mechanism for
				// this (the card mostly sleeps): busy+PS-idle draws
				// 340 mA = 1.70 W, the pd it plugs into Eq. 2.
				r.dev.SetPowerSave(true)
			}
			for _, b := range blocks {
				r.worker.Add(b.work)
			}
			r.k.At(r.worker.Drain(), func() {
				r.dev.SetPowerSave(spec.PowerSave)
				r.finish()
			})
		})
	case spec.OnDemand:
		r.onDemand(blocks)
	default:
		r.interleaved(blocks, wireBytes)
	}

	res, err := r.run(spec.MeterRate)
	if err != nil {
		return Result{}, err
	}
	res.RawBytes = len(spec.Data)
	res.WireBytes = wireBytes
	res.Factor = codec.Factor(len(spec.Data), wireBytes)
	res.BlocksTotal = stats.total
	res.BlocksCompressed = stats.compressed
	if spec.CaptureTrace {
		res.Trace = r.dev.Trace()
	}
	return res, nil
}

type blockStats struct{ total, compressed int }

// buildBlocks compresses the payload and derives the per-block transfer
// schedule.
func buildBlocks(spec Spec) ([]wireBlock, int, blockStats, error) {
	raw := spec.Data
	if spec.Mode == ModePlain {
		return nil, len(raw), blockStats{}, nil
	}
	c, err := codec.New(spec.Scheme, spec.Level)
	if err != nil {
		return nil, 0, blockStats{}, err
	}
	decompCost := device.DecompressCost(spec.Scheme)
	proxyCost := device.ProxyCompressCost(spec.Scheme).ScaledForLevel(spec.Level)

	var blocks []wireBlock
	var stats blockStats

	if spec.Selective {
		enc, err := selective.Encode(raw, c, spec.Decider)
		if err != nil {
			return nil, 0, blockStats{}, err
		}
		st := enc.Stats()
		stats = blockStats{total: st.BlocksTotal, compressed: st.BlocksCompressed}
		for _, b := range enc.Blocks {
			wb := wireBlock{wireBytes: b.WireLen()}
			if b.Compressed {
				wb.work = decompCost.Seconds(len(b.Payload), b.RawLen, 1)
				wb.readyAt = proxyCost.Seconds(b.RawLen, len(b.Payload), 1)
			} else {
				wb.work = time.Duration(rawCopyCostPerMB * float64(b.RawLen) / 1e6 * float64(time.Second))
			}
			blocks = append(blocks, wb)
		}
		return finishSchedule(spec, blocks, st.WireBytes, stats)
	}

	comp, err := c.Compress(raw)
	if err != nil {
		return nil, 0, blockStats{}, err
	}
	// Partition into 128 KB raw blocks with proportional compressed
	// shares, the granularity at which zlib hands blocks to the
	// decompressor.
	n := len(raw)
	numBlocks := (n + blockRaw - 1) / blockRaw
	if numBlocks == 0 {
		numBlocks = 1
	}
	stats = blockStats{total: numBlocks, compressed: numBlocks}
	prevWire := 0
	for i := 0; i < numBlocks; i++ {
		rawStart := i * blockRaw
		rawEnd := rawStart + blockRaw
		if rawEnd > n {
			rawEnd = n
		}
		wireEnd := len(comp)
		if n > 0 {
			wireEnd = int(int64(len(comp)) * int64(rawEnd) / int64(n))
		}
		// One shared stream: fixed start-up costs are charged on the
		// first block only.
		wb := wireBlock{wireBytes: wireEnd - prevWire}
		if i == 0 {
			wb.work = decompCost.Seconds(wb.wireBytes, rawEnd-rawStart, 1)
			wb.readyAt = proxyCost.Seconds(rawEnd-rawStart, wb.wireBytes, 1)
		} else {
			wb.work = decompCost.MarginalSeconds(wb.wireBytes, rawEnd-rawStart, 1)
			wb.readyAt = proxyCost.MarginalSeconds(rawEnd-rawStart, wb.wireBytes, 1)
		}
		prevWire = wireEnd
		blocks = append(blocks, wb)
	}
	return finishSchedule(spec, blocks, len(comp), stats)
}

// finishSchedule converts per-block proxy compression costs into absolute
// server-side ready times (sequential compression pipeline) for on-demand
// runs, or clears them for precompressed runs.
func finishSchedule(spec Spec, blocks []wireBlock, wire int, stats blockStats) ([]wireBlock, int, blockStats, error) {
	if !spec.OnDemand {
		for i := range blocks {
			blocks[i].readyAt = 0
		}
		return blocks, wire, stats, nil
	}
	if spec.OnDemandWholeFile {
		// The whole file is compressed up front; the client waits for the
		// full compression, then streams without stalls.
		var total time.Duration
		for i := range blocks {
			total += blocks[i].readyAt
			blocks[i].readyAt = 0
		}
		if len(blocks) > 0 {
			blocks[0].readyAt = total
		}
		return blocks, wire, stats, nil
	}
	var clock time.Duration
	for i := range blocks {
		clock += blocks[i].readyAt // compression duration of this block
		blocks[i].readyAt = clock
	}
	return blocks, wire, stats, nil
}

// interleaved downloads the whole wire stream, queueing each block's
// decompression work as its last byte arrives; the worker consumes the
// packet gaps.
func (r *rig) interleaved(blocks []wireBlock, wireBytes int) {
	thresholds := make([]int, len(blocks))
	sum := 0
	for i, b := range blocks {
		sum += b.wireBytes
		thresholds[i] = sum
	}
	next := 0
	r.link.Download(wireBytes, func(total int) {
		for next < len(blocks) && total >= thresholds[next] {
			r.worker.Add(blocks[next].work)
			next++
		}
	}, r.worker, func() {
		for ; next < len(blocks); next++ { // rounding leftovers
			r.worker.Add(blocks[next].work)
		}
		r.drain()
	})
}

// onDemand chains per-block transfers, stalling (radio idle, worker
// granted the window) when the server's compression pipeline is behind.
func (r *rig) onDemand(blocks []wireBlock) {
	var sendBlock func(i int)
	sendBlock = func(i int) {
		if i >= len(blocks) {
			r.drain()
			return
		}
		b := blocks[i]
		start := func() {
			r.link.Transfer(b.wireBytes, nil, r.worker, func() {
				r.worker.Add(b.work)
				sendBlock(i + 1)
			})
		}
		if wait := b.readyAt - r.k.Now(); wait > 0 {
			r.stall += wait
			r.worker.Window(wait)
			r.k.Schedule(wait, start)
			return
		}
		start()
	}
	// Connection setup, then the block chain.
	r.k.Schedule(wlan.SetupTime, func() { sendBlock(0) })
}
