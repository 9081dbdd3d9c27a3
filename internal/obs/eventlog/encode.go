package eventlog

import (
	"strconv"
	"time"
)

// Hand-rolled JSONL encoding. encoding/json would work, but the flight
// recorder's contract is byte-identity, so the encoder must be fully
// deterministic and cheap: fields appear in a fixed order decided per
// event type (never by struct reflection or map iteration), floats are
// formatted with strconv's shortest round-trip form ('g', -1, 64), and
// times are the simulated clock in RFC3339. Which fields a type carries
// is part of the schema: a field either always appears for its type or
// never does, so zero values (vehicle 0, window 0 during warmup) are
// never ambiguous.

// appendManifest encodes the header record.
func appendManifest(b []byte, m *Manifest) []byte {
	b = append(b, `{"ev":"manifest","v":`...)
	b = strconv.AppendInt(b, int64(m.Version), 10)
	b = appendStr(b, "scale", m.Scale)
	b = appendStr(b, "config_hash", m.ConfigHash)
	b = append(b, `,"seed":`...)
	b = strconv.AppendInt(b, m.Seed, 10)
	if m.Chaos != "" {
		b = appendStr(b, "chaos", m.Chaos)
		b = append(b, `,"chaos_seed":`...)
		b = strconv.AppendInt(b, m.ChaosSeed, 10)
	}
	if m.TrainActors > 0 {
		b = appendInt(b, "train_actors", m.TrainActors)
	}
	// Informational fields (excluded from diff semantics) last.
	if m.Workers > 0 {
		b = appendInt(b, "workers", m.Workers)
	}
	if m.TrainWorkers > 0 {
		b = appendInt(b, "train_workers", m.TrainWorkers)
	}
	b = appendStr(b, "go", m.GoVersion)
	if m.Timing {
		b = append(b, `,"timing":true`...)
	}
	return append(b, "}\n"...)
}

// appendEvent encodes one event record. The switch is the schema.
func appendEvent(b []byte, e *Event) []byte {
	b = append(b, `{"ev":"`...)
	b = append(b, e.Type...)
	b = append(b, '"')
	if e.W > 0 {
		b = appendInt(b, "w", e.W)
	}

	switch e.Type {
	case TypeRunStart:
		b = appendStr(b, "run", e.Run)
		b = appendStr(b, "method", e.Method)
		b = appendTime(b, e.T)
		b = appendInt(b, "n", e.N) // total requests scheduled to appear

	case TypeRunEnd:
		b = appendStr(b, "run", e.Run)
		b = appendStr(b, "method", e.Method)
		b = appendInt(b, "served", e.Served)
		b = appendInt(b, "timely", e.Timely)
		b = appendInt(b, "unserved", e.Unserved)

	case TypeWindowOpen:
		b = appendTime(b, e.T)
		b = appendInt(b, "active", e.Active)

	case TypeWindowClose:
		b = appendInt(b, "orders", e.Orders)
		b = appendInt(b, "serving", e.Serving)
		b = appendInt(b, "served", e.Served)

	case TypeDecide:
		b = appendStr(b, "method", e.Method)
		b = appendInt(b, "active", e.Active)
		b = appendInt(b, "orders", e.Orders)
		b = appendInt64(b, "delay_ms", e.DelayMS)
		if e.Hits > 0 || e.Misses > 0 {
			b = appendInt64(b, "hits", e.Hits)
			b = appendInt64(b, "misses", e.Misses)
		}
		if e.LatencyNS > 0 {
			b = appendInt64(b, "latency_ns", e.LatencyNS)
		}

	case TypeOrder:
		b = appendInt(b, "vehicle", e.Vehicle)
		if e.ToDepot {
			b = append(b, `,"to_depot":true`...)
		} else {
			b = appendInt(b, "target", e.Target)
		}

	case TypeOrderReject:
		b = appendStr(b, "kind", e.Kind)
		b = appendInt(b, "vehicle", e.Vehicle)

	case TypePickup:
		b = appendInt(b, "vehicle", e.Vehicle)
		b = appendInt(b, "request", e.Request)
		b = appendTime(b, e.T)

	case TypeDropoff:
		b = appendInt(b, "vehicle", e.Vehicle)
		b = appendInt(b, "n", e.N)
		b = appendTime(b, e.T)

	case TypeFault:
		b = appendStr(b, "kind", e.Kind)
		if e.Vehicle > 0 || e.Kind == "stall" {
			b = appendInt(b, "vehicle", e.Vehicle)
		}
		if e.DurMS > 0 {
			b = appendInt64(b, "dur_ms", e.DurMS)
		}
		if e.N > 0 {
			b = appendInt(b, "n", e.N)
		}
		if !e.T.IsZero() {
			b = appendTime(b, e.T)
		}

	case TypeFallback:
		b = appendStr(b, "kind", e.Kind)
		b = appendInt(b, "orders", e.Orders)

	case TypeDeadline:
		b = appendStr(b, "method", e.Method)
		b = appendInt64(b, "dur_ms", e.DurMS)

	case TypeReroute:
		b = appendStr(b, "kind", e.Kind)
		b = appendInt(b, "vehicle", e.Vehicle)
		if e.ToDepot {
			b = append(b, `,"to_depot":true`...)
		}

	case TypeTrainRound:
		b = appendInt(b, "round", e.Round)
		b = appendInt(b, "episodes", e.Episodes)
		b = appendInt(b, "transitions", e.Transitions)
		b = appendFloat(b, "reward", e.Reward)
		b = appendFloat(b, "epsilon", e.Epsilon)
		b = appendFloat(b, "loss", e.Loss)

	case TypeCheckpoint:
		b = appendInt(b, "round", e.Round)
		b = appendStr(b, "path", e.Path)

	case TypePredCache:
		b = appendInt64(b, "hits", e.Hits)
		b = appendInt64(b, "misses", e.Misses)

	default:
		// Unknown type: emit the generic counters so nothing is silently
		// lost; keeps forward-compat for experimental emitters.
		b = appendStr(b, "kind", e.Kind)
		if e.N > 0 {
			b = appendInt(b, "n", e.N)
		}
	}
	return append(b, "}\n"...)
}

func appendInt(b []byte, key string, v int) []byte {
	return appendInt64(b, key, int64(v))
}

func appendInt64(b []byte, key string, v int64) []byte {
	b = append(b, ',', '"')
	b = append(b, key...)
	b = append(b, '"', ':')
	return strconv.AppendInt(b, v, 10)
}

func appendFloat(b []byte, key string, v float64) []byte {
	b = append(b, ',', '"')
	b = append(b, key...)
	b = append(b, '"', ':')
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

// appendStr emits ,"key":"value" with minimal JSON escaping; empty
// values are skipped entirely (no field is better than a "" field for
// optional strings).
func appendStr(b []byte, key, v string) []byte {
	if v == "" {
		return b
	}
	b = append(b, ',', '"')
	b = append(b, key...)
	b = append(b, '"', ':', '"')
	for i := 0; i < len(v); i++ {
		c := v[i]
		switch {
		case c == '"' || c == '\\':
			b = append(b, '\\', c)
		case c < 0x20:
			b = append(b, '\\', 'u', '0', '0', hexDigit(c>>4), hexDigit(c&0xf))
		default:
			b = append(b, c)
		}
	}
	return append(b, '"')
}

func hexDigit(v byte) byte {
	if v < 10 {
		return '0' + v
	}
	return 'a' + v - 10
}

// appendTime emits the simulated clock as ,"t":"RFC3339". Zero times
// are skipped.
func appendTime(b []byte, t time.Time) []byte {
	if t.IsZero() {
		return b
	}
	b = append(b, `,"t":"`...)
	b = t.AppendFormat(b, time.RFC3339)
	return append(b, '"')
}
