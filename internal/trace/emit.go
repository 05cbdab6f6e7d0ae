package trace

import (
	"bufio"
	"encoding/json"
	"io"
	"strconv"
)

// fieldSet says which optional Event fields a kind populates. Emitters
// write exactly these fields — legitimate zero values (request id 0,
// queue depth 0, occupancy 0) are emitted, and fields a kind does not
// use are absent (JSONL) or empty (CSV), so consumers can tell "zero"
// from "not applicable".
type fieldSet struct{ end, write, bytes, depth, cyls, id bool }

var kindFields = [...]fieldSet{
	KindDiskService: {end: true, write: true, bytes: true, depth: true},
	KindDiskQueue:   {depth: true},
	KindDiskSeek:    {cyls: true},
	KindReqStart:    {write: true, bytes: true, id: true},
	KindReqEnd:      {end: true, id: true},
	KindPoolBusy:    {end: true},
	KindBuffer:      {bytes: true, depth: true},
	KindNetMsg:      {bytes: true},
	KindFault:       {},
	KindRetry:       {end: true, depth: true},
}

// WriteJSONL writes the trace as JSON Lines: one event object per line,
// in seq order, with stable snake_case keys. Identical runs produce
// byte-identical output. Each line is appended into one reused buffer,
// byte for byte what encoding/json would encode for the object
//
//	{"seq", "kind", "t_ns", "end_ns", "node", "peer", "write", "bytes", "depth", "cyls", "id"}
//
// where node and peer are omitted when empty and the optional fields
// appear exactly when the event's kind populates them.
func (r *Recorder) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	var buf []byte
	for e := range r.all() {
		fs := kindFields[e.Kind]
		buf = append(buf[:0], `{"seq":`...)
		buf = strconv.AppendInt(buf, e.Seq, 10)
		buf = append(buf, `,"kind":`...)
		buf = appendJSONString(buf, e.Kind.String())
		buf = append(buf, `,"t_ns":`...)
		buf = strconv.AppendInt(buf, e.T, 10)
		if fs.end {
			buf = append(buf, `,"end_ns":`...)
			buf = strconv.AppendInt(buf, e.End, 10)
		}
		if e.Node != "" {
			buf = append(buf, `,"node":`...)
			buf = appendJSONString(buf, e.Node)
		}
		if e.Peer != "" {
			buf = append(buf, `,"peer":`...)
			buf = appendJSONString(buf, e.Peer)
		}
		if fs.write {
			buf = append(buf, `,"write":`...)
			buf = strconv.AppendBool(buf, e.Write)
		}
		buf = appendJSONField(buf, `,"bytes":`, e.Bytes, fs.bytes)
		buf = appendJSONField(buf, `,"depth":`, e.Depth, fs.depth)
		buf = appendJSONField(buf, `,"cyls":`, e.Cyls, fs.cyls)
		buf = appendJSONField(buf, `,"id":`, e.ID, fs.id)
		buf = append(buf, "}\n"...)
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// appendJSONField appends key and v when the kind uses the field.
func appendJSONField(buf []byte, key string, v int64, used bool) []byte {
	if !used {
		return buf
	}
	return strconv.AppendInt(append(buf, key...), v, 10)
}

// appendJSONString appends s as a JSON string. Component and kind names
// are plain ASCII and are copied between quotes; any other string takes
// encoding/json's own escaping (HTML-safe, as json.Encoder writes it),
// so the output matches encoding/json byte for byte either way.
func appendJSONString(buf []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			b, _ := json.Marshal(s) // a string always marshals
			return append(buf, b...)
		}
	}
	buf = append(buf, '"')
	buf = append(buf, s...)
	return append(buf, '"')
}

// csvHeader is the long-format column set; every event is one row, with
// columns unused by its kind left empty.
const csvHeader = "seq,kind,t_ns,end_ns,node,peer,write,bytes,depth,cyls,id\n"

// WriteCSV writes the trace as long-format (tidy) CSV: one row per
// event, one column per field, so spreadsheet and dataframe tools can
// filter by kind without parsing JSON.
func (r *Recorder) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(csvHeader); err != nil {
		return err
	}
	var buf []byte
	for e := range r.all() {
		fs := kindFields[e.Kind]
		buf = buf[:0]
		buf = strconv.AppendInt(buf, e.Seq, 10)
		buf = append(buf, ',')
		buf = append(buf, e.Kind.String()...)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, e.T, 10)
		buf = append(buf, ',')
		buf = appendField(buf, e.End, fs.end)
		buf = append(buf, ',')
		buf = append(buf, e.Node...)
		buf = append(buf, ',')
		buf = append(buf, e.Peer...)
		buf = append(buf, ',')
		if fs.write {
			if e.Write {
				buf = append(buf, '1')
			} else {
				buf = append(buf, '0')
			}
		}
		buf = append(buf, ',')
		buf = appendField(buf, e.Bytes, fs.bytes)
		buf = append(buf, ',')
		buf = appendField(buf, e.Depth, fs.depth)
		buf = append(buf, ',')
		buf = appendField(buf, e.Cyls, fs.cyls)
		buf = append(buf, ',')
		buf = appendField(buf, e.ID, fs.id)
		buf = append(buf, '\n')
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// appendField renders v when the kind uses the field, else leaves the
// column empty.
func appendField(buf []byte, v int64, used bool) []byte {
	if !used {
		return buf
	}
	return strconv.AppendInt(buf, v, 10)
}
