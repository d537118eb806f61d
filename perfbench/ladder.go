package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"

	"dpn/internal/core"
	"dpn/internal/meta"
	"dpn/internal/netio"
	"dpn/internal/stream"
	"dpn/internal/token"
	"dpn/internal/token/blocks"
	"dpn/internal/workload"
)

// The ladder pushes one job's records through cumulative layers — the
// bare pipe, the int64 token codec, a broker link, the same link over
// mux — and reports each rung's marginal cost over the rung below it.
// It also times the block codec on the job's chunks, a one-element
// ping-pong over a link and over mux, and the gob object codec on the
// factor job's tasks. Every rung runs at GOMAXPROCS 2 (the plain
// metric name) and 1 (suffix ".p1"), and reports the median of
// ladderReps repetitions.
const (
	ladderReps  = 5
	ladderChunk = 8 << 10 // one generator batch: 512 records of 16 bytes
	rttRounds   = 400
	objectTasks = 64
)

// jobRecords returns the stream job's (key, value) pairs as the
// generator writes them, collected through the exported KeyedGen.
func jobRecords(spec streamSpec, seed int64) ([]int64, error) {
	n := core.NewNetwork()
	ch := n.NewChannel("ladder.pairs", chanCap)
	n.Spawn(&workload.KeyedGen{Out: ch.Writer(), Records: spec.records, Keys: spec.keys, Seed: seed, Batch: spec.batch})
	var out []int64
	rd := token.NewReader(ch.Reader())
	buf := make([]int64, 1024)
	for {
		k, err := rd.ReadInt64s(buf)
		out = append(out, buf[:k]...)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
	}
	ch.Reader().Close()
	return out, n.Wait()
}

func beBytes(vs []int64) []byte {
	b := make([]byte, 8*len(vs))
	for i, v := range vs {
		binary.BigEndian.PutUint64(b[8*i:], uint64(v))
	}
	return b
}

// medianOf runs f reps times and returns the median duration.
func medianOf(reps int, f func() (time.Duration, error)) (time.Duration, error) {
	ds := make([]time.Duration, 0, reps)
	for i := 0; i < reps; i++ {
		d, err := f()
		if err != nil {
			return 0, err
		}
		ds = append(ds, d)
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[len(ds)/2], nil
}

// pumpPipe moves payload through a bounded pipe in generator-sized
// writes and returns the time until the reader has drained it.
func pumpPipe(payload []byte) (time.Duration, error) {
	p := stream.NewPipe(chanCap)
	start := time.Now()
	go func() {
		for off := 0; off < len(payload); off += ladderChunk {
			if _, err := p.Write(payload[off:min(off+ladderChunk, len(payload))]); err != nil {
				break
			}
		}
		p.CloseWrite()
	}()
	return drain(p.ReadEnd(), len(payload), start)
}

func drain(r io.Reader, want int, start time.Time) (time.Duration, error) {
	n, err := io.CopyBuffer(io.Discard, r, make([]byte, ladderChunk))
	d := time.Since(start)
	if err != nil {
		return 0, err
	}
	if n != int64(want) {
		return 0, fmt.Errorf("drained %d bytes, want %d", n, want)
	}
	return d, nil
}

// pumpTokens writes the records through WriteInt64s in generator
// batches and reads them back with ReadInt64s.
func pumpTokens(recs []int64) (time.Duration, error) {
	p := stream.NewPipe(chanCap)
	start := time.Now()
	go func() {
		w := token.NewWriter(p)
		for off := 0; off < len(recs); off += ladderChunk / 8 {
			if err := w.WriteInt64s(recs[off:min(off+ladderChunk/8, len(recs))]); err != nil {
				break
			}
		}
		p.CloseWrite()
	}()
	rd := token.NewReader(p)
	buf := make([]int64, 256)
	got := 0
	for {
		k, err := rd.ReadInt64s(buf)
		got += k
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, err
		}
	}
	d := time.Since(start)
	if got != len(recs) {
		return 0, fmt.Errorf("read %d elements, want %d", got, len(recs))
	}
	return d, nil
}

// brokerPair starts two brokers, optionally with mux enabled.
func brokerPair(mux bool) (*netio.Broker, *netio.Broker, error) {
	a, err := netio.NewBroker("127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	b, err := netio.NewBroker("127.0.0.1:0")
	if err != nil {
		a.Close()
		return nil, nil, err
	}
	if mux {
		a.EnableMux(psk)
		b.EnableMux(psk)
	}
	return a, b, nil
}

// link binds one broker link from a to b and returns its two pipes.
func link(a, b *netio.Broker) (src, dst *stream.Pipe, err error) {
	src, dst = stream.NewPipe(chanCap), stream.NewPipe(chanCap)
	tok := a.NewToken()
	if _, err := a.ServeOutbound(tok, src.ReadEnd(), 0); err != nil {
		return nil, nil, err
	}
	h, err := b.DialInbound(a.Addr(), tok, dst.WriteEnd())
	if err != nil {
		return nil, nil, err
	}
	if err := h.WaitReady(); err != nil {
		return nil, nil, err
	}
	return src, dst, nil
}

// pumpLink moves payload over one link between a fresh broker pair.
// Set-up is outside the timed interval.
func pumpLink(mux bool, payload []byte) (time.Duration, error) {
	a, b, err := brokerPair(mux)
	if err != nil {
		return 0, err
	}
	defer a.Close()
	defer b.Close()
	src, dst, err := link(a, b)
	if err != nil {
		return 0, err
	}
	start := time.Now()
	go func() {
		for off := 0; off < len(payload); off += ladderChunk {
			if _, err := src.Write(payload[off:min(off+ladderChunk, len(payload))]); err != nil {
				break
			}
		}
		src.CloseWrite()
	}()
	return drain(dst.ReadEnd(), len(payload), start)
}

// pingPong times one-element round trips over a link pair and returns
// the median round trip.
func pingPong(mux bool) (time.Duration, error) {
	a, b, err := brokerPair(mux)
	if err != nil {
		return 0, err
	}
	defer a.Close()
	defer b.Close()
	pingSrc, pingDst, err := link(a, b)
	if err != nil {
		return 0, err
	}
	pongSrc, pongDst, err := link(b, a)
	if err != nil {
		return 0, err
	}
	echoed := make(chan error, 1)
	go func() {
		var buf [8]byte
		for i := 0; i < rttRounds; i++ {
			if _, err := io.ReadFull(pingDst, buf[:]); err != nil {
				echoed <- err
				return
			}
			if _, err := pongSrc.Write(buf[:]); err != nil {
				echoed <- err
				return
			}
		}
		echoed <- nil
	}()
	rtts := make([]time.Duration, 0, rttRounds)
	var buf [8]byte
	for i := 0; i < rttRounds; i++ {
		binary.BigEndian.PutUint64(buf[:], uint64(i))
		t := time.Now()
		if _, err := pingSrc.Write(buf[:]); err != nil {
			return 0, err
		}
		if _, err := io.ReadFull(pongDst, buf[:]); err != nil {
			return 0, err
		}
		rtts = append(rtts, time.Since(t))
	}
	if err := <-echoed; err != nil {
		return 0, err
	}
	pingSrc.CloseWrite()
	pongSrc.CloseWrite()
	sort.Slice(rtts, func(i, j int) bool { return rtts[i] < rtts[j] })
	return rtts[len(rtts)/2], nil
}

// codecChunks times the block encoder and decoder over the payload in
// generator-sized chunks.
func codecChunks(payload []byte) (enc, dec time.Duration, err error) {
	var e blocks.Encoder
	encoded := make([][]byte, 0, len(payload)/ladderChunk+1)
	start := time.Now()
	for off := 0; off < len(payload); off += ladderChunk {
		chunk := payload[off:min(off+ladderChunk, len(payload))]
		b, ok := e.EncodeBE(make([]byte, 0, len(chunk)), chunk, blocks.ShapeInt64, len(chunk))
		if !ok {
			b = blocks.AppendRaw(nil, chunk)
		}
		encoded = append(encoded, b)
	}
	enc = time.Since(start)
	out := make([]byte, 0, ladderChunk)
	start = time.Now()
	for _, b := range encoded {
		if out, err = blocks.DecodeBE(out[:0], b, ladderChunk); err != nil {
			return 0, 0, err
		}
	}
	return enc, time.Since(start), nil
}

// objectCodec round-trips factor tasks and their results (objs holds
// each task followed by its result) through WriteObject/ReadObject, as
// the meta processes send them, and returns the time and bytes per
// task.
func objectCodec(objs []meta.Task) (time.Duration, int, error) {
	var buf bytes.Buffer
	w, r := token.NewWriter(&buf), token.NewReader(&buf)
	start := time.Now()
	size := 0
	for _, v := range objs {
		if err := w.WriteObject(&v); err != nil {
			return 0, 0, err
		}
		size += buf.Len()
		var back meta.Task
		if err := r.ReadObject(&back); err != nil {
			return 0, 0, err
		}
	}
	return time.Since(start), size / (len(objs) / 2), nil
}

// ladder runs every rung at GOMAXPROCS 2 and 1.
func ladder(seed int64) (map[string]float64, error) {
	recs, err := jobRecords(benchStream, seed)
	if err != nil {
		return nil, err
	}
	payload := beBytes(recs)
	kb := float64(len(payload)) / 1024
	records := float64(len(recs) / 2)
	key, err := factorKey(seed, objectTasks)
	if err != nil {
		return nil, err
	}
	src := newSource(key, objectTasks)
	var objs []meta.Task
	for {
		t, err := src.Run()
		if err != nil {
			return nil, err
		}
		if t == nil {
			break
		}
		res, err := t.Run()
		if err != nil {
			return nil, err
		}
		objs = append(objs, t, res)
	}

	out := map[string]float64{}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, procs := range []int{2, 1} {
		runtime.GOMAXPROCS(procs)
		sfx := ""
		if procs == 1 {
			sfx = ".p1"
		}
		pipe, err := medianOf(ladderReps, func() (time.Duration, error) { return pumpPipe(payload) })
		if err != nil {
			return nil, fmt.Errorf("pipe rung: %w", err)
		}
		tok, err := medianOf(ladderReps, func() (time.Duration, error) { return pumpTokens(recs) })
		if err != nil {
			return nil, fmt.Errorf("token rung: %w", err)
		}
		lnk, err := medianOf(ladderReps, func() (time.Duration, error) { return pumpLink(false, payload) })
		if err != nil {
			return nil, fmt.Errorf("link rung: %w", err)
		}
		mux, err := medianOf(ladderReps, func() (time.Duration, error) { return pumpLink(true, payload) })
		if err != nil {
			return nil, fmt.Errorf("mux rung: %w", err)
		}
		rtt, err := medianOf(ladderReps, func() (time.Duration, error) { return pingPong(false) })
		if err != nil {
			return nil, fmt.Errorf("link ping-pong: %w", err)
		}
		muxRTT, err := medianOf(ladderReps, func() (time.Duration, error) { return pingPong(true) })
		if err != nil {
			return nil, fmt.Errorf("mux ping-pong: %w", err)
		}
		var encs, decs []float64
		for i := 0; i < ladderReps; i++ {
			enc, dec, err := codecChunks(payload)
			if err != nil {
				return nil, fmt.Errorf("block codec: %w", err)
			}
			encs = append(encs, float64(enc)/kb)
			decs = append(decs, float64(dec)/kb)
		}
		var objUs []float64
		var objBytes int
		for i := 0; i < ladderReps; i++ {
			d, size, err := objectCodec(objs)
			if err != nil {
				return nil, fmt.Errorf("object codec: %w", err)
			}
			objUs = append(objUs, float64(d)/objectTasks/1e3)
			objBytes = size
		}

		out["stream.pipe_ns_per_kb"+sfx] = float64(pipe) / kb
		out["token.int64_ns_per_item"+sfx] = float64(tok-pipe) / records
		out["netio.link_ns_per_kb"+sfx] = float64(lnk-pipe) / kb
		out["mux.link_ns_per_kb"+sfx] = float64(mux-lnk) / kb
		out["netio.rtt_us"+sfx] = float64(rtt) / 1e3
		out["mux.rtt_us"+sfx] = float64(muxRTT-rtt) / 1e3
		out["blocks.encode_ns_per_kb"+sfx] = median(encs)
		out["blocks.decode_ns_per_kb"+sfx] = median(decs)
		out["token.object_us_per_task"+sfx] = median(objUs)
		out["token.object_bytes_per_task"] = float64(objBytes)
	}
	return out, nil
}
