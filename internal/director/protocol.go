// Package director implements GuNFu's control plane (§III): the
// director that deploys and configures network functions, and the
// per-host runtime agent that receives deployment commands, builds the
// NF data plane, runs it, and reports operational statistics back.
//
// The wire protocol is newline-delimited JSON over TCP. A deployment
// names an NF from the agent's registry together with its workload
// parameters; the agent compiles and runs it on a simulated core and
// returns the measured result. This mirrors the paper's
// director-agent/runtime-agent split with the NIC replaced by the
// traffic generators (the data plane under test is CPU-side either
// way).
package director

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"github.com/gunfu-nfv/gunfu/internal/deploy"
	"github.com/gunfu-nfv/gunfu/internal/rt"
	"github.com/gunfu-nfv/gunfu/internal/stats"
)

// Message types exchanged between director and agents.
const (
	// TypeRegister announces an agent (agent → director).
	TypeRegister = "register"
	// TypeDeploy asks an agent to build and run an NF (director → agent).
	TypeDeploy = "deploy"
	// TypeResult carries a completed run's measurements (agent → director).
	TypeResult = "result"
	// TypeError reports a failed command (agent → director).
	TypeError = "error"
	// TypeShutdown asks the agent to exit (director → agent).
	TypeShutdown = "shutdown"
	// TypeStats is an unsolicited mid-deployment telemetry heartbeat
	// (agent → director); see DeploySpec.StatsEvery.
	TypeStats = "stats"
	// TypeDump asks the agent to dump its flight-recorder ring
	// (director → agent). The agent honors it at its next safe point: a
	// window boundary mid-deployment, immediately when idle.
	TypeDump = "dump"
	// TypeDumpDone reports a completed (or failed) flight dump
	// (agent → director); like TypeStats it never answers a Deploy.
	TypeDumpDone = "dump-done"
)

// DeploySpec is the deploy message's spec: an alias of deploy.Spec, so
// the wire type cannot drift from what every other caller builds.
type DeploySpec = deploy.Spec

// Result carries an agent's measurements back to the director: the
// measured window's record, under the agent's name.
type Result struct {
	// Agent is the reporting agent's name.
	Agent string `json:"agent"`
	rt.Result
}

// StatsReport is one telemetry heartbeat: the windowed delta of a
// running deployment (not a cumulative total), so rates derived from
// it describe the most recent chunk only.
type StatsReport struct {
	// Agent is the reporting agent's name.
	Agent string `json:"agent"`
	// NF is the deployed network function.
	NF string `json:"nf"`
	// Window is the chunk index within the deployment, from 0.
	Window int `json:"window"`
	// Result is the chunk's record: volume, simulated span, clock and
	// PMU delta.
	rt.Result
	// Latency is the chunk's rx→done latency histogram in cycles
	// (present when the deployment requested DeploySpec.Latency).
	// Histograms share one fixed bucket geometry, so receivers can
	// Merge them across windows and agents into cluster quantiles.
	Latency *stats.Histogram `json:"latency,omitempty"`
}

// P99Cycles returns the window's p99 rx→done latency in cycles, or 0
// when the report carries no latency histogram.
func (s StatsReport) P99Cycles() uint64 {
	if s.Latency == nil {
		return 0
	}
	return s.Latency.Quantile(0.99)
}

// Envelope is the wire message.
type Envelope struct {
	// Type discriminates the payload.
	Type string `json:"type"`
	// Seq correlates a response with its request.
	Seq int `json:"seq"`
	// Agent is the sender/receiver agent name.
	Agent string `json:"agent,omitempty"`
	// Deploy is set for TypeDeploy.
	Deploy *DeploySpec `json:"deploy,omitempty"`
	// Result is set for TypeResult.
	Result *Result `json:"result,omitempty"`
	// Stats is set for TypeStats.
	Stats *StatsReport `json:"stats,omitempty"`
	// Dump is set for TypeDumpDone.
	Dump *DumpInfo `json:"dump,omitempty"`
	// Error is set for TypeError.
	Error string `json:"error,omitempty"`
}

// DumpInfo describes one flight-recorder dump. The trace itself stays
// on the agent's host (it can be megabytes); the director learns where
// it landed and how much it covers.
type DumpInfo struct {
	// Agent is the dumping agent's name.
	Agent string `json:"agent"`
	// Path is the Perfetto JSON file on the agent's host.
	Path string `json:"path,omitempty"`
	// Events is the number of trace events in the dump.
	Events int `json:"events"`
	// Error is set when the dump could not be produced (e.g. no
	// deployment has run, or its replay diverged from the live run).
	Error string `json:"error,omitempty"`
}

// encode marshals an envelope to one JSON line.
func encode(e Envelope) ([]byte, error) {
	b, err := json.Marshal(e)
	if err != nil {
		return nil, fmt.Errorf("director: encode: %w", err)
	}
	return append(b, '\n'), nil
}

// MaxFrameBytes bounds one wire message. A peer that streams a longer
// line — or an attacker-controlled length that would force unbounded
// buffering — poisons the connection with ErrFrameTooLarge instead of
// growing memory.
const MaxFrameBytes = 1 << 20

// ErrFrameTooLarge reports a wire frame longer than MaxFrameBytes.
// The framing is lost once a frame overruns, so readers treat it as a
// connection-fatal error, not a skippable message.
var ErrFrameTooLarge = errors.New("director: frame exceeds MaxFrameBytes")

// errMalformed reports a frame that is not a JSON envelope (or carries
// no type). Readers skip such frames: the stream stays framed, so one
// garbage line must not kill an otherwise healthy connection.
var errMalformed = errors.New("director: malformed frame")

// decodeMsg parses one newline-framed message (without its trailing
// newline) into an envelope. It is the single validation point both
// ends read through — and the surface the protocol fuzz targets hit.
func decodeMsg(line []byte) (Envelope, error) {
	if len(line) > MaxFrameBytes {
		return Envelope{}, ErrFrameTooLarge
	}
	var env Envelope
	if err := json.Unmarshal(line, &env); err != nil {
		return Envelope{}, fmt.Errorf("%w: %v", errMalformed, err)
	}
	if env.Type == "" {
		return Envelope{}, fmt.Errorf("%w: missing type", errMalformed)
	}
	return env, nil
}

// msgReader reads newline-framed envelopes with bounded buffering:
// frames accumulate through a fixed-size bufio.Reader and are capped
// at MaxFrameBytes, so a hostile or corrupted peer can never force an
// allocation proportional to its claimed frame size.
type msgReader struct {
	br  *bufio.Reader
	buf []byte
}

func newMsgReader(r io.Reader) *msgReader {
	return &msgReader{br: bufio.NewReaderSize(r, 64<<10)}
}

// readLine returns the next frame without its newline. A partial line
// at EOF (a frame truncated by a mid-message reset) is dropped: there
// is no way to know how much of it is missing.
func (m *msgReader) readLine() ([]byte, error) {
	m.buf = m.buf[:0]
	for {
		frag, err := m.br.ReadSlice('\n')
		m.buf = append(m.buf, frag...)
		if len(m.buf) > MaxFrameBytes+1 {
			return nil, ErrFrameTooLarge
		}
		if err == nil {
			return m.buf[:len(m.buf)-1], nil
		}
		if err == bufio.ErrBufferFull {
			continue
		}
		return nil, err
	}
}

// next returns the next well-formed envelope, skipping malformed
// frames. Frame overruns and I/O errors end the stream.
func (m *msgReader) next() (Envelope, error) {
	for {
		line, err := m.readLine()
		if err != nil {
			return Envelope{}, err
		}
		env, err := decodeMsg(line)
		if err != nil {
			if errors.Is(err, ErrFrameTooLarge) {
				return Envelope{}, err
			}
			continue // malformed: skip, keep the connection
		}
		return env, nil
	}
}
