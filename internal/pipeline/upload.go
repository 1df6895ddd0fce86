package pipeline

import (
	"time"

	"repro/internal/codec"
	"repro/internal/device"
	"repro/internal/energy"
	"repro/internal/selective"
	"repro/internal/wlan"
)

// uploadProbeBytes is the sample size the adaptive uploader compresses to
// estimate a block's factor before committing to a full compression.
const uploadProbeBytes = 16_000

// UploadSpec describes one simulated upload experiment — the direction the
// paper raises in its introduction (live-captured voice and pictures) and
// leaves to future work. The handheld compresses on its own CPU
// (device.HandheldCompressCost) and transmits; compression of block i+1
// overlaps the transmission of block i via the inter-packet idle windows,
// mirroring the download-side interleaving.
type UploadSpec struct {
	// Data is the raw content to upload.
	Data []byte
	// Scheme is the compression scheme; Compressed must be set for it to
	// take effect.
	Scheme codec.Scheme
	// Level is the codec level (0 = paper setting).
	Level int
	// Compressed selects compress-then-send (pipelined); false uploads
	// the raw bytes.
	Compressed bool
	// Selective applies the Equation 6 per-block test before compressing
	// each block (with the raw/compressed framing of Section 4.3).
	Selective bool
	// Rate is the link configuration (defaults to 11 Mb/s).
	Rate wlan.RateConfig
	// MeterRate is the multimeter sampling rate (0 = 300/s).
	MeterRate float64
}

// RunUpload executes the upload experiment — the same run as a download
// with the direction reversed — and reports the same result structure
// (CompressSeconds lands in DecompressSeconds' place: it is the CPU-busy
// time).
func RunUpload(spec UploadSpec) (Result, error) {
	mode := ModePlain
	if spec.Compressed {
		mode = ModeInterleaved
	}
	return Run(Spec{
		Data: spec.Data, Scheme: spec.Scheme, Level: spec.Level, Mode: mode,
		Selective: spec.Selective, Rate: spec.Rate, MeterRate: spec.MeterRate,
		upload: true,
	})
}

// upload sends blocks one transmission each, compressing block i+1 inside
// the idle windows of block i's transmission; with no blocks it sends
// wireBytes raw.
func (r *rig) upload(blocks []wireBlock, wireBytes int) {
	if len(blocks) == 0 {
		r.link.Upload(wireBytes, nil, r.stop)
		return
	}
	var sendBlock func(i int)
	sendBlock = func(i int) {
		if i >= len(blocks) {
			r.stop()
			return
		}
		// Block i must be fully compressed before its bytes exist to
		// send; any leftover work stalls the radio (CPU busy).
		r.stall += r.worker.Pending()
		r.k.At(r.worker.Drain(), func() {
			// Queue the next block's compression to run inside this
			// transmission's idle windows.
			if i+1 < len(blocks) {
				r.worker.Add(blocks[i+1].work)
			}
			r.link.Upload(blocks[i].wireBytes, r.worker, func() { sendBlock(i + 1) })
		})
	}
	// Lead-in: compress block 0 before anything can be sent.
	r.worker.Add(blocks[0].work)
	sendBlock(0)
}

// buildUploadBlocks compresses the payload on the "handheld" and derives
// per-block wire sizes and compression costs.
func buildUploadBlocks(spec Spec) ([]wireBlock, int, blockStats, error) {
	if spec.Mode == ModePlain {
		return nil, len(spec.Data), blockStats{}, nil
	}
	c, err := codec.New(spec.Scheme, spec.Level)
	if err != nil {
		return nil, 0, blockStats{}, err
	}
	cost := device.HandheldCompressCost(spec.Scheme).ScaledForLevel(spec.Level)

	decider := selective.Decider(selective.AlwaysCompress{})
	if spec.Selective {
		decider = selective.UploadDecider{
			Params:    energy.Params11Mbps(),
			PerInMB:   cost.PerInMB,
			PerOutMB:  cost.PerOutMB,
			PerStream: cost.PerStream,
		}
	}
	enc, err := selective.Encode(spec.Data, c, decider)
	if err != nil {
		return nil, 0, blockStats{}, err
	}
	st := enc.Stats()
	stats := blockStats{total: st.BlocksTotal, compressed: st.BlocksCompressed}
	blocks := make([]wireBlock, 0, len(enc.Blocks))
	for _, b := range enc.Blocks {
		wb := wireBlock{wireBytes: b.WireLen()}
		if b.Compressed {
			wb.work = cost.Seconds(b.RawLen, len(b.Payload), 1)
		} else {
			// A rejected block costs a cheap probe, not a full attempt:
			// the adaptive uploader compresses a 16 kB sample of the
			// block and extrapolates the factor before deciding (the
			// decision itself is idealised as if the full factor were
			// known). A plain raw block costs only the copy.
			wb.work = time.Duration(rawCopyCostPerMB * float64(b.RawLen) / 1e6 * float64(time.Second))
			if spec.Selective && b.RawLen >= decider.MinSizeBytes() {
				probe := b.RawLen
				if probe > uploadProbeBytes {
					probe = uploadProbeBytes
				}
				wb.work += cost.Seconds(probe, probe, 1)
			}
		}
		blocks = append(blocks, wb)
	}
	return blocks, st.WireBytes, stats, nil
}
