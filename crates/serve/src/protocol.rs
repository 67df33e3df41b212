//! The pt-serve wire protocol: length-prefixed JSON frames over TCP.
//!
//! Every message — request, response or stream element — is one *frame*:
//! a little-endian `u32` byte length followed by that many bytes of UTF-8
//! JSON (parsed with [`pt_io::Json`]; no external serialization dep).
//! Requests are objects with a `"cmd"` key (`submit`, `status`, `tail`,
//! `stats`, `cancel`, `fetch`, `shutdown`); responses carry `"ok": true`
//! plus command-specific fields, or `"ok": false` with an `"error"`
//! string. `tail` and `stats` stream: the server keeps sending frames
//! (`done: false`) until the stream's end condition holds or `follow` was
//! false, then closes the stream with a `done: true` frame. A connection
//! handles any number of sequential requests. In a number column (a
//! fetched table's, a tail frame's `t` and `values`) a non-finite sample
//! is `null`, which [`f64_column`] reads back as NaN.

use pt_ham::PtError;
use pt_io::Json;
use std::io::{Read, Write};

/// Upper bound on one frame's payload — large enough for a full result
/// table of a long run, small enough to reject garbage length prefixes
/// (e.g. a plain-HTTP client knocking on the port) before allocating.
pub const MAX_FRAME: usize = 64 << 20;

fn io_err(what: &str, e: &std::io::Error) -> PtError {
    PtError::Io {
        path: "<pt-serve socket>".into(),
        reason: format!("{what}: {e}"),
    }
}

/// Serialize `msg` and write it as one frame — length prefix and body in
/// **one** write: two small writes on a TCP socket meet Nagle's algorithm
/// and the peer's delayed ACK, ~88 ms per round trip on loopback.
pub fn write_frame(w: &mut impl Write, msg: &Json) -> Result<(), PtError> {
    let body = msg.dump();
    let n = u32::try_from(body.len()).map_err(|_| {
        PtError::InvalidConfig(format!("frame of {} bytes exceeds u32", body.len()))
    })?;
    let mut frame = Vec::with_capacity(4 + body.len());
    frame.extend_from_slice(&n.to_le_bytes());
    frame.extend_from_slice(body.as_bytes());
    w.write_all(&frame)
        .and_then(|()| w.flush())
        .map_err(|e| io_err("writing frame", &e))
}

/// Read one frame. `Ok(None)` on a clean EOF at a frame boundary (the
/// peer hung up between messages); anything else that cuts a frame short
/// is an error.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Json>, PtError> {
    let mut len = [0u8; 4];
    // distinguish "no next frame" from "frame cut short": EOF on the very
    // first byte of the prefix is a clean close
    match r.read(&mut len[..1]) {
        Ok(0) => return Ok(None),
        Ok(_) => {}
        Err(e) => return Err(io_err("reading frame length", &e)),
    }
    r.read_exact(&mut len[1..])
        .map_err(|e| io_err("reading frame length", &e))?;
    let n = u32::from_le_bytes(len) as usize;
    if n > MAX_FRAME {
        return Err(PtError::InvalidConfig(format!(
            "frame length {n} exceeds the {MAX_FRAME}-byte cap — not a pt-serve peer?"
        )));
    }
    let mut body = vec![0u8; n];
    r.read_exact(&mut body)
        .map_err(|e| io_err("reading frame body", &e))?;
    let text = String::from_utf8(body)
        .map_err(|e| PtError::InvalidConfig(format!("frame is not UTF-8: {e}")))?;
    Json::parse(&text).map(Some)
}

/// Build the uniform error response frame.
pub fn error_response(message: &str) -> Json {
    Json::Obj(vec![
        ("ok".to_string(), Json::Bool(false)),
        ("error".to_string(), Json::Str(message.to_string())),
    ])
}

/// Build an `"ok": true` response with extra fields.
pub fn ok_response(fields: Vec<(String, Json)>) -> Json {
    let mut pairs = vec![("ok".to_string(), Json::Bool(true))];
    pairs.extend(fields);
    Json::Obj(pairs)
}

/// Extract the result of a response frame: the object on `ok: true`, the
/// server's error message (as [`PtError::InvalidConfig`]) on `ok: false`.
pub fn check_response(msg: Json) -> Result<Json, PtError> {
    match msg.get("ok").and_then(Json::as_bool) {
        Some(true) => Ok(msg),
        Some(false) => Err(PtError::InvalidConfig(format!(
            "server refused: {}",
            msg.get("error").and_then(Json::as_str).unwrap_or("unknown")
        ))),
        None => Err(PtError::InvalidConfig(
            "malformed response: missing 'ok'".into(),
        )),
    }
}

/// Decode a number column: `null` (a non-finite sample) becomes NaN, so
/// the column keeps its length and stays row-aligned with `t`. `None`
/// for a non-array or an entry that is neither a number nor `null`.
pub(crate) fn f64_column(v: &Json) -> Option<Vec<f64>> {
    v.as_arr()?
        .iter()
        .map(|x| match x {
            Json::Null => Some(f64::NAN),
            x => x.as_f64(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip_back_to_back() {
        let a = ok_response(vec![("job".to_string(), Json::Num(7.0))]);
        let b = error_response("nope");
        let mut buf = Vec::new();
        write_frame(&mut buf, &a).unwrap();
        write_frame(&mut buf, &b).unwrap();
        let mut r = &buf[..];
        let got_a = read_frame(&mut r).unwrap().unwrap();
        let got_b = read_frame(&mut r).unwrap().unwrap();
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF");
        assert_eq!(got_a.get("job").and_then(Json::as_u64), Some(7));
        assert!(check_response(got_a).is_ok());
        let err = check_response(got_b).unwrap_err();
        assert!(err.to_string().contains("nope"), "{err}");
    }

    #[test]
    fn a_frame_is_one_write() {
        struct CountingWrite {
            bytes: Vec<u8>,
            writes: usize,
        }
        impl Write for CountingWrite {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.writes += 1;
                self.bytes.extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut w = CountingWrite {
            bytes: Vec::new(),
            writes: 0,
        };
        let msg = ok_response(vec![("job".to_string(), Json::Num(7.0))]);
        write_frame(&mut w, &msg).unwrap();
        assert_eq!(w.writes, 1, "prefix and body must leave in one segment");
        let got = read_frame(&mut &w.bytes[..]).unwrap().unwrap();
        assert_eq!(got.get("job").and_then(Json::as_u64), Some(7));
    }

    #[test]
    fn truncated_and_oversized_frames_are_errors() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &ok_response(vec![])).unwrap();
        // frame cut short mid-body
        let cut = &buf[..buf.len() - 2];
        assert!(read_frame(&mut &cut[..]).is_err());
        // frame cut short mid-prefix
        assert!(read_frame(&mut &buf[..2]).is_err());
        // absurd length prefix (e.g. "GET " from an HTTP client)
        let garbage = *b"GET / HTTP/1.1\r\n";
        assert!(read_frame(&mut &garbage[..]).is_err());
    }
}
