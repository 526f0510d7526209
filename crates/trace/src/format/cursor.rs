//! Incremental event cursors: decode PVT/PVTA streams without a
//! [`Trace`](crate::trace::Trace).
//!
//! The batch readers ([`pvt::read`](super::pvt::read),
//! [`archive::read_archive`](super::archive::read_archive)) materialise
//! every event stream in memory before analysis can start, so the memory
//! ceiling of the whole pipeline is set by ingestion. The cursors in this
//! module move the streaming boundary to the file descriptor:
//!
//! * [`StreamCursor`] decodes one process's delta-coded event stream
//!   record by record, validating incrementally (monotone timestamps,
//!   balanced nesting, defined references) and tracking the byte offset
//!   so failures are reported precisely;
//! * [`ArchiveCursor`] opens a PVTA archive directory, reads the anchor
//!   (name, clock, definitions) once, and hands out one independent
//!   [`StreamCursor`] per process — workers can pull different ranks from
//!   disk in parallel without any shared mutable state.
//!
//! Live state per cursor is `O(read buffer + call-stack depth)`; the
//! event *payload* never lands in memory as a whole. Decode and
//! validation logic is shared with the batch readers (one implementation,
//! property-tested for equality), so a cursor consumed to completion
//! gives the same guarantees as reading and validating the full trace.
//!
//! Errors raised while decoding a stream body are wrapped in
//! [`TraceError::CorruptStream`] carrying the process id and the byte
//! offset within the stream file — the contract the out-of-core analysis
//! path relies on to report which ranks of a damaged archive were
//! recovered.

use super::archive::{read_anchor, stream_file, STREAM_MAGIC};
use super::mmap::FileReader;
use super::varint::{decode_u64_slice, fold_leb128_groups, read_u64};
use crate::error::{TraceError, TraceResult};
use crate::event::{Event, EventRecord};
use crate::ids::{FunctionId, MetricId, ProcessId};
use crate::registry::Registry;
use crate::time::{Clock, Timestamp};
use std::io::{BufRead, Read};
use std::path::{Path, PathBuf};

/// How an [`ArchiveCursor`] reads stream files: mapped or buffered, and
/// with what buffer when buffered.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CursorOptions {
    /// Memory-map stream files where possible (the default). The
    /// buffered fallback still applies when mapping fails.
    pub mmap: bool,
    /// Read-buffer size in bytes for the buffered path (ignored when a
    /// file is mapped). Clamped to a small floor.
    pub read_buffer_bytes: usize,
}

impl CursorOptions {
    /// Default buffered read-buffer size (256 KiB).
    pub const DEFAULT_READ_BUFFER: usize = 256 * 1024;
}

impl Default for CursorOptions {
    fn default() -> CursorOptions {
        CursorOptions {
            mmap: true,
            read_buffer_bytes: CursorOptions::DEFAULT_READ_BUFFER,
        }
    }
}

/// The table sizes of a [`Registry`] — everything incremental validation
/// needs to check references, small enough to copy into every worker.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RegistryShape {
    /// Number of defined processes.
    pub processes: usize,
    /// Number of defined functions.
    pub functions: usize,
    /// Number of defined metric channels.
    pub metrics: usize,
}

impl RegistryShape {
    /// Extracts the shape of a registry.
    pub fn of(registry: &Registry) -> RegistryShape {
        RegistryShape {
            processes: registry.num_processes(),
            functions: registry.num_functions(),
            metrics: registry.num_metrics(),
        }
    }
}

/// Reads a varint and narrows it to a `u32` id, reporting the table it
/// points into on overflow.
pub(crate) fn read_id_u32<R: BufRead>(r: &mut R, kind: &'static str) -> TraceResult<u32> {
    let v = read_u64(r)?;
    u32::try_from(v).map_err(|_| TraceError::UndefinedReference { kind, index: v })
}

/// Upper bound on the wire size of one event record: at most five
/// varints of at most ten bytes each. When the read buffer holds at
/// least this much, a whole record can be decoded from the slice with a
/// single `consume`, skipping per-varint buffer accounting.
const MAX_EVENT_BYTES: usize = 50;

/// Decodes one delta-coded event record (the shared wire format of PVT
/// stream bodies and PVTA stream files): `{tag, time-delta, payload…}`.
/// Returns the absolute timestamp and the event.
pub(crate) fn decode_event<R: BufRead>(r: &mut R, prev_time: u64) -> TraceResult<(u64, Event)> {
    let buf = r.fill_buf()?;
    if buf.len() >= MAX_EVENT_BYTES {
        if let Some((used, time, event)) = decode_event_slice(buf, prev_time) {
            r.consume(used);
            return Ok((time, event));
        }
        // Malformed record: fall through without consuming so the
        // stream decoder reproduces the exact error and offset.
    }
    decode_event_stream(r, prev_time)
}

/// Slice fast path of [`decode_event`]: the buffer is known to hold a
/// full record, so every field is decoded with plain index arithmetic.
/// An Enter/Leave record whose three varints fit in the first 8 bytes —
/// nearly every record of a real trace — comes from one word load
/// ([`decode_enter_leave_word`]); every other record, and any record
/// the word path declines, is decoded field by field. `None` on any
/// malformed field — the caller re-decodes from the stream to produce
/// the error.
#[inline]
fn decode_event_slice(buf: &[u8], prev_time: u64) -> Option<(usize, u64, Event)> {
    if let Some(bytes) = buf.first_chunk::<8>() {
        let word = u64::from_le_bytes(*bytes);
        if word & 0xff <= 1 {
            if let Some(decoded) = decode_enter_leave_word(word, prev_time) {
                return Some(decoded);
            }
        }
    }
    decode_event_fields(buf, prev_time)
}

/// Decodes an Enter/Leave record from its first 8 bytes, read as one
/// little-endian word whose low byte (the tag) is known to be 0 or 1.
///
/// The tag byte holds the first stop bit (a byte without a continuation
/// bit); clearing the lowest stop twice with `x & (x - 1)` finds the
/// bytes that end the time delta and the function id, and each field is
/// masked out of the word and packed by [`fold_leb128_groups`]. `None`
/// declines — the two varints do not end within the word, the delta
/// overflows the timestamp, or the id does not fit a `u32` — and the
/// field-by-field path then decides the record, so the word path can
/// only ever return what that path returns.
#[inline]
fn decode_enter_leave_word(word: u64, prev_time: u64) -> Option<(usize, u64, Event)> {
    const STOP_BITS: u64 = 0x8080_8080_8080_8080;
    let stops = !word & STOP_BITS;
    let after_tag = stops & stops.wrapping_sub(1);
    let after_delta = after_tag & after_tag.wrapping_sub(1);
    if after_delta == 0 {
        return None;
    }
    // Bit lengths up to and including the delta and the function id:
    // multiples of 8, with 8 < delta_end < end ≤ 64.
    let delta_end = after_tag.trailing_zeros() + 1;
    let end = after_delta.trailing_zeros() + 1;
    let delta_bytes = (word >> 8) & ((1u64 << (delta_end - 8)) - 1);
    let function_bytes = (word >> delta_end) & ((1u64 << (end - delta_end)) - 1);
    let time = prev_time.checked_add(fold_leb128_groups(delta_bytes))?;
    let function = FunctionId(u32::try_from(fold_leb128_groups(function_bytes)).ok()?);
    let event = if word & 1 == 0 {
        Event::Enter { function }
    } else {
        Event::Leave { function }
    };
    Some(((end / 8) as usize, time, event))
}

/// Field-by-field slice decoder: one [`decode_u64_slice`] per varint,
/// for every tag. `None` on any malformed field.
#[inline]
fn decode_event_fields(buf: &[u8], prev_time: u64) -> Option<(usize, u64, Event)> {
    #[inline]
    fn take_u64(buf: &[u8], pos: &mut usize) -> Option<u64> {
        let (v, n) = decode_u64_slice(&buf[*pos..])?;
        *pos += n;
        Some(v)
    }
    #[inline]
    fn take_u32(buf: &[u8], pos: &mut usize) -> Option<u32> {
        u32::try_from(take_u64(buf, pos)?).ok()
    }
    let mut pos = 0usize;
    let tag = take_u64(buf, &mut pos)?;
    let delta = take_u64(buf, &mut pos)?;
    let time = prev_time.checked_add(delta)?;
    let event = match tag {
        0 => Event::Enter {
            function: FunctionId(take_u32(buf, &mut pos)?),
        },
        1 => Event::Leave {
            function: FunctionId(take_u32(buf, &mut pos)?),
        },
        2 => Event::MsgSend {
            to: ProcessId(take_u32(buf, &mut pos)?),
            tag: take_u32(buf, &mut pos)?,
            bytes: take_u64(buf, &mut pos)?,
        },
        3 => Event::MsgRecv {
            from: ProcessId(take_u32(buf, &mut pos)?),
            tag: take_u32(buf, &mut pos)?,
            bytes: take_u64(buf, &mut pos)?,
        },
        4 => Event::Metric {
            metric: MetricId(take_u32(buf, &mut pos)?),
            value: take_u64(buf, &mut pos)?,
        },
        _ => return None,
    };
    Some((pos, time, event))
}

/// Stream path of [`decode_event`]: used near the end of the buffer and
/// to turn malformed records into their precise errors.
fn decode_event_stream<R: BufRead>(r: &mut R, prev_time: u64) -> TraceResult<(u64, Event)> {
    let tag = read_u64(r)?;
    let delta = read_u64(r)?;
    let time = prev_time
        .checked_add(delta)
        .ok_or_else(|| TraceError::Corrupt("timestamp overflow".into()))?;
    let event = match tag {
        0 => Event::Enter {
            function: FunctionId(read_id_u32(r, "function")?),
        },
        1 => Event::Leave {
            function: FunctionId(read_id_u32(r, "function")?),
        },
        2 => Event::MsgSend {
            to: ProcessId(read_id_u32(r, "process")?),
            tag: read_id_u32(r, "tag")?,
            bytes: read_u64(r)?,
        },
        3 => Event::MsgRecv {
            from: ProcessId(read_id_u32(r, "process")?),
            tag: read_id_u32(r, "tag")?,
            bytes: read_u64(r)?,
        },
        4 => Event::Metric {
            metric: MetricId(read_id_u32(r, "metric")?),
            value: read_u64(r)?,
        },
        other => return Err(TraceError::Corrupt(format!("unknown event tag {other}"))),
    };
    Ok((time, event))
}

/// Incrementally validates one decoded event against the registry shape
/// and the running call stack (references in range, balanced nesting).
/// Timestamp monotonicity is implied by the delta coding and checked by
/// [`decode_event`]'s overflow test.
#[inline]
pub(crate) fn check_event(
    shape: RegistryShape,
    process: ProcessId,
    time: u64,
    event: &Event,
    stack: &mut Vec<FunctionId>,
) -> TraceResult<()> {
    match *event {
        Event::Enter { function } => {
            if function.index() >= shape.functions {
                return Err(TraceError::UndefinedReference {
                    kind: "function",
                    index: function.0 as u64,
                });
            }
            stack.push(function);
        }
        Event::Leave { function } => match stack.last().copied() {
            Some(top) if top == function => {
                stack.pop();
            }
            other => {
                return Err(TraceError::MismatchedLeave {
                    process,
                    time: Timestamp(time),
                    left: function,
                    expected: other,
                })
            }
        },
        Event::MsgSend { to, .. } if to.index() >= shape.processes => {
            return Err(TraceError::UndefinedReference {
                kind: "process",
                index: to.0 as u64,
            });
        }
        Event::MsgRecv { from, .. } if from.index() >= shape.processes => {
            return Err(TraceError::UndefinedReference {
                kind: "process",
                index: from.0 as u64,
            });
        }
        Event::Metric { metric, .. } if metric.index() >= shape.metrics => {
            return Err(TraceError::UndefinedReference {
                kind: "metric",
                index: metric.0 as u64,
            });
        }
        _ => {}
    }
    Ok(())
}

/// `Read` adapter counting the bytes consumed so far, so stream cursors
/// can report the exact failure position inside a file.
#[derive(Debug)]
pub(crate) struct CountingReader<R> {
    inner: R,
    offset: u64,
}

impl<R: Read> CountingReader<R> {
    pub(crate) fn new(inner: R) -> CountingReader<R> {
        CountingReader { inner, offset: 0 }
    }

    /// Bytes consumed since construction.
    pub(crate) fn offset(&self) -> u64 {
        self.offset
    }
}

impl<R: Read> Read for CountingReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.offset += n as u64;
        Ok(n)
    }
}

impl<R: BufRead> BufRead for CountingReader<R> {
    fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
        self.inner.fill_buf()
    }

    fn consume(&mut self, amt: usize) {
        self.offset += amt as u64;
        self.inner.consume(amt);
    }
}

/// Incremental cursor over one process's event stream.
///
/// Yields [`EventRecord`]s one at a time from a PVTA stream file (see
/// [`ArchiveCursor::stream`]), decoding and validating on the fly. Live
/// state is the read buffer plus the call-stack of open invocations —
/// independent of the number of events.
///
/// Any error while decoding the body comes back as
/// [`TraceError::CorruptStream`] naming the process and the byte offset
/// within the stream file; the cursor then *fuses* (yields `None`
/// forever). A stream that ends with open invocations, or with trailing
/// bytes after the declared record count, is an error too — consuming a
/// cursor to completion certifies the stream exactly as the batch reader
/// would.
#[derive(Debug)]
pub struct StreamCursor<R: BufRead> {
    reader: CountingReader<R>,
    process: ProcessId,
    shape: RegistryShape,
    remaining: u64,
    prev_time: u64,
    stack: Vec<FunctionId>,
    done: bool,
    poisoned: bool,
}

impl<R: BufRead> StreamCursor<R> {
    /// Opens a cursor over a PVTS stream file body: verifies the magic
    /// and the declared process index, then positions before the first
    /// record. Header-level damage is reported as plain
    /// [`TraceError::Corrupt`] (there is no trustworthy offset yet).
    pub fn open_stream(reader: R, process: ProcessId, shape: RegistryShape) -> TraceResult<Self> {
        let mut reader = CountingReader::new(reader);
        let mut magic = [0u8; 4];
        reader
            .read_exact(&mut magic)
            .map_err(|_| TraceError::Corrupt(format!("truncated stream header of {process}")))?;
        if &magic != STREAM_MAGIC {
            return Err(TraceError::Corrupt(format!(
                "bad stream magic for {process}"
            )));
        }
        let declared = read_u64(&mut reader)?;
        if declared != process.index() as u64 {
            return Err(TraceError::Corrupt(format!(
                "stream file of {process} declares process {declared}"
            )));
        }
        let remaining = read_u64(&mut reader)?;
        Ok(StreamCursor {
            reader,
            process,
            shape,
            remaining,
            prev_time: 0,
            stack: Vec::new(),
            done: false,
            poisoned: false,
        })
    }

    /// The process this cursor decodes.
    pub fn process(&self) -> ProcessId {
        self.process
    }

    /// Records left to decode (per the stream's declared count).
    pub fn remaining(&self) -> u64 {
        self.remaining
    }

    /// Bytes consumed from the stream file so far.
    pub fn byte_offset(&self) -> u64 {
        self.reader.offset()
    }

    fn fail(&mut self, source: TraceError) -> TraceError {
        self.poisoned = true;
        TraceError::CorruptStream {
            process: self.process,
            offset: self.reader.offset(),
            source: Box::new(source),
        }
    }

    /// Decodes and validates the next record, `Ok(None)` at a clean end
    /// of stream. After an error the cursor is poisoned and keeps
    /// returning `Ok(None)`.
    pub fn next_record(&mut self) -> TraceResult<Option<EventRecord>> {
        if self.done || self.poisoned {
            return Ok(None);
        }
        if self.remaining == 0 {
            if !self.stack.is_empty() {
                let e = TraceError::UnbalancedStack {
                    process: self.process,
                    open_frames: self.stack.len(),
                };
                return Err(self.fail(e));
            }
            let mut probe = [0u8; 1];
            match self.reader.read(&mut probe) {
                Ok(0) => {}
                Ok(_) => {
                    let e = TraceError::Corrupt("trailing bytes after final record".into());
                    return Err(self.fail(e));
                }
                Err(e) => return Err(self.fail(TraceError::Io(e))),
            }
            self.done = true;
            return Ok(None);
        }
        let (time, event) = match decode_event(&mut self.reader, self.prev_time) {
            Ok(v) => v,
            Err(e) => return Err(self.fail(e)),
        };
        if let Err(e) = check_event(self.shape, self.process, time, &event, &mut self.stack) {
            return Err(self.fail(e));
        }
        self.prev_time = time;
        self.remaining -= 1;
        Ok(Some(EventRecord::new(Timestamp(time), event)))
    }

    /// Decodes up to `max` records into `out` (cleared first), returning
    /// how many were produced; `Ok(0)` means clean end of stream.
    ///
    /// Semantically identical to calling [`Self::next_record`] `max`
    /// times, but whole records within the buffered slice are decoded
    /// with one `fill_buf`/`consume` pair per refill instead of one per
    /// record — with a mapped file the slice is the entire remaining
    /// stream. Per refill the loop keeps the previous timestamp, the
    /// record budget and the slice position in locals, stops at the last
    /// position where a whole record still fits, and writes the cursor
    /// state back once. Any anomaly (malformed field, validation
    /// failure, buffer boundary, end of stream) leaves the reader
    /// positioned at the offending record and falls back to
    /// `next_record`, which reproduces the exact error, offset and
    /// end-of-stream certification of the one-at-a-time path. On `Err`,
    /// `out` holds the records decoded before the failure.
    pub fn next_chunk(&mut self, out: &mut Vec<EventRecord>, max: usize) -> TraceResult<usize> {
        out.clear();
        while out.len() < max && self.remaining > 0 && !self.done && !self.poisoned {
            // The tail path re-encounters and reports a read error.
            let Ok(buf) = self.reader.fill_buf() else {
                break;
            };
            let Some(last) = buf.len().checked_sub(MAX_EVENT_BYTES) else {
                break;
            };
            let budget = ((max - out.len()) as u64).min(self.remaining);
            // A record takes at least 3 bytes, so at most `last / 3 + 1`
            // start at or before `last`: the reservation stays bounded by
            // the input even when the declared count is not.
            out.reserve(budget.min(last as u64 / 3 + 1) as usize);
            let mut prev_time = self.prev_time;
            let mut decoded = 0u64;
            let mut pos = 0usize;
            let mut clean = true;
            while decoded < budget && pos <= last {
                let Some((used, time, event)) = decode_event_slice(&buf[pos..], prev_time) else {
                    clean = false;
                    break;
                };
                // `check_event` mutates nothing on failure; the record
                // stays unconsumed for the tail.
                if check_event(self.shape, self.process, time, &event, &mut self.stack).is_err() {
                    clean = false;
                    break;
                }
                out.push(EventRecord::new(Timestamp(time), event));
                prev_time = time;
                decoded += 1;
                pos += used;
            }
            self.prev_time = prev_time;
            self.remaining -= decoded;
            self.reader.consume(pos);
            if !clean {
                break;
            }
        }
        while out.len() < max {
            match self.next_record()? {
                Some(record) => out.push(record),
                None => break,
            }
        }
        Ok(out.len())
    }
}

impl<R: BufRead> Iterator for StreamCursor<R> {
    type Item = TraceResult<EventRecord>;

    fn next(&mut self) -> Option<Self::Item> {
        match self.next_record() {
            Ok(Some(record)) => Some(Ok(record)),
            Ok(None) => None,
            Err(e) => Some(Err(e)),
        }
    }
}

/// Read-only handle on a PVTA archive directory, holding the anchor
/// (name, clock, definitions) and handing out per-process
/// [`StreamCursor`]s.
///
/// The handle itself is cheap and immutable (`&ArchiveCursor` is `Sync`),
/// so parallel workers share one and open their own stream cursors:
///
/// ```
/// use perfvar_trace::format::{archive, cursor::ArchiveCursor};
/// use perfvar_trace::prelude::*;
///
/// let mut b = TraceBuilder::new(Clock::microseconds()).with_name("demo");
/// let f = b.define_function("work", FunctionRole::Compute);
/// let p = b.define_process("rank 0");
/// b.process_mut(p).enter(Timestamp(0), f).unwrap();
/// b.process_mut(p).leave(Timestamp(5), f).unwrap();
/// let dir = std::env::temp_dir().join("perfvar-cursor-doc.pvta");
/// archive::write_archive(&b.finish().unwrap(), &dir).unwrap();
///
/// let archive = ArchiveCursor::open(&dir).unwrap();
/// assert_eq!(archive.num_processes(), 1);
/// let events: Vec<_> = archive.stream(p).unwrap().collect::<Result<_, _>>().unwrap();
/// assert_eq!(events.len(), 2);
/// ```
#[derive(Debug)]
pub struct ArchiveCursor {
    dir: PathBuf,
    name: String,
    clock: Clock,
    registry: Registry,
    options: CursorOptions,
}

impl ArchiveCursor {
    /// Opens an archive directory: reads and validates the anchor file
    /// only. No stream file is touched yet. Streams are memory-mapped
    /// where possible; use [`open_with`](ArchiveCursor::open_with) to
    /// control that.
    pub fn open(dir: impl AsRef<Path>) -> TraceResult<ArchiveCursor> {
        ArchiveCursor::open_with(dir, CursorOptions::default())
    }

    /// Like [`open`](ArchiveCursor::open) with explicit
    /// [`CursorOptions`] (mmap on/off, buffered read-buffer size).
    pub fn open_with(dir: impl AsRef<Path>, options: CursorOptions) -> TraceResult<ArchiveCursor> {
        let dir = dir.as_ref();
        let (name, clock, registry) = read_anchor(dir)?;
        Ok(ArchiveCursor {
            dir: dir.to_path_buf(),
            name,
            clock,
            registry,
            options,
        })
    }

    /// The read options streams are opened with.
    pub fn options(&self) -> CursorOptions {
        self.options
    }

    /// The trace name from the anchor.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The trace clock.
    pub fn clock(&self) -> Clock {
        self.clock
    }

    /// The definition tables from the anchor.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Number of processes (= stream files) the anchor declares.
    pub fn num_processes(&self) -> usize {
        self.registry.num_processes()
    }

    /// Opens the event cursor of one process's stream file: mapped when
    /// the options (and the platform) allow it, buffered otherwise.
    /// Either way the cursor consumes the identical byte stream, so
    /// error offsets do not depend on the read path.
    pub fn stream(&self, process: ProcessId) -> TraceResult<StreamCursor<FileReader>> {
        let path = self.dir.join(stream_file(process.index()));
        let reader = FileReader::open(&path, self.options.mmap, self.options.read_buffer_bytes)
            .map_err(|e| {
                TraceError::Io(std::io::Error::new(
                    e.kind(),
                    format!("{}: {e}", path.display()),
                ))
            })?;
        StreamCursor::open_stream(reader, process, RegistryShape::of(&self.registry))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::archive::write_archive;
    use crate::registry::FunctionRole;
    use crate::trace::{Trace, TraceBuilder};

    fn sample(num_processes: usize) -> Trace {
        let mut b = TraceBuilder::new(Clock::microseconds()).with_name("cursor sample");
        let f = b.define_function("work", FunctionRole::Compute);
        let barrier = b.define_function("MPI_Barrier", FunctionRole::MpiCollective);
        for pi in 0..num_processes {
            let p = b.define_process(format!("rank {pi}"));
            let w = b.process_mut(p);
            let mut t = pi as u64;
            for _ in 0..10 {
                w.enter(Timestamp(t), f).unwrap();
                t += 4;
                w.enter(Timestamp(t), barrier).unwrap();
                t += 1;
                w.leave(Timestamp(t), barrier).unwrap();
                w.leave(Timestamp(t), f).unwrap();
            }
        }
        b.finish().unwrap()
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("perfvar-cursor-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn cursor_yields_same_events_as_batch_reader() {
        let t = sample(3);
        let dir = tmp("same.pvta");
        write_archive(&t, &dir).unwrap();
        let archive = ArchiveCursor::open(&dir).unwrap();
        assert_eq!(archive.name(), "cursor sample");
        assert_eq!(archive.clock(), t.clock());
        assert_eq!(archive.registry(), t.registry());
        for pid in t.registry().process_ids() {
            let events: Vec<EventRecord> = archive
                .stream(pid)
                .unwrap()
                .collect::<Result<_, _>>()
                .unwrap();
            assert_eq!(events, t.stream(pid).records(), "{pid}");
        }
    }

    #[test]
    fn truncated_tail_names_process_and_offset() {
        let t = sample(3);
        let dir = tmp("trunc.pvta");
        write_archive(&t, &dir).unwrap();
        // Chop the tail off stream 1.
        let path = dir.join(stream_file(1));
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 7]).unwrap();

        let archive = ArchiveCursor::open(&dir).unwrap();
        // Stream 0 still reads clean.
        let ok: Result<Vec<_>, _> = archive.stream(ProcessId(0)).unwrap().collect();
        assert!(ok.is_ok());
        // Stream 1 fails with process id and a positive byte offset.
        let err = archive
            .stream(ProcessId(1))
            .unwrap()
            .collect::<Result<Vec<_>, _>>()
            .unwrap_err();
        match err {
            TraceError::CorruptStream {
                process, offset, ..
            } => {
                assert_eq!(process, ProcessId(1));
                assert!(offset > 0, "offset {offset}");
                assert!(offset <= bytes.len() as u64);
            }
            other => panic!("expected CorruptStream, got {other}"),
        }
    }

    #[test]
    fn cursor_fuses_after_error() {
        let t = sample(1);
        let dir = tmp("fuse.pvta");
        write_archive(&t, &dir).unwrap();
        let path = dir.join(stream_file(0));
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        let archive = ArchiveCursor::open(&dir).unwrap();
        let mut cursor = archive.stream(ProcessId(0)).unwrap();
        let mut saw_err = false;
        for item in cursor.by_ref() {
            if item.is_err() {
                saw_err = true;
                break;
            }
        }
        assert!(saw_err);
        assert!(cursor.next().is_none(), "cursor fuses after an error");
    }

    #[test]
    fn trailing_garbage_rejected() {
        let t = sample(1);
        let dir = tmp("trailing.pvta");
        write_archive(&t, &dir).unwrap();
        let path = dir.join(stream_file(0));
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.push(0xAB);
        std::fs::write(&path, &bytes).unwrap();
        let archive = ArchiveCursor::open(&dir).unwrap();
        let err = archive
            .stream(ProcessId(0))
            .unwrap()
            .collect::<Result<Vec<_>, _>>()
            .unwrap_err();
        assert!(
            matches!(err, TraceError::CorruptStream { process, .. } if process == ProcessId(0)),
            "{err}"
        );
        assert!(err.to_string().contains("trailing bytes"), "{err}");
    }

    #[test]
    fn unbalanced_stream_rejected_at_end() {
        // Hand-craft a stream whose declared count covers only the Enter.
        use crate::format::varint::write_u64;
        let t = sample(1);
        let dir = tmp("unbalanced.pvta");
        write_archive(&t, &dir).unwrap();
        let path = dir.join(stream_file(0));
        let mut bytes = Vec::new();
        bytes.extend_from_slice(STREAM_MAGIC);
        write_u64(&mut bytes, 0).unwrap(); // declared index
        write_u64(&mut bytes, 1).unwrap(); // one record
        write_u64(&mut bytes, 0).unwrap(); // tag: Enter
        write_u64(&mut bytes, 5).unwrap(); // delta
        write_u64(&mut bytes, 0).unwrap(); // function 0
        std::fs::write(&path, &bytes).unwrap();
        let archive = ArchiveCursor::open(&dir).unwrap();
        let err = archive
            .stream(ProcessId(0))
            .unwrap()
            .collect::<Result<Vec<_>, _>>()
            .unwrap_err();
        assert!(err.to_string().contains("unclosed"), "{err}");
        assert!(matches!(err, TraceError::CorruptStream { .. }));
    }

    #[test]
    fn header_damage_reported_plainly() {
        let t = sample(2);
        let dir = tmp("badhead.pvta");
        write_archive(&t, &dir).unwrap();
        std::fs::write(dir.join(stream_file(0)), b"XXXX").unwrap();
        let archive = ArchiveCursor::open(&dir).unwrap();
        let err = archive.stream(ProcessId(0)).unwrap_err();
        assert!(matches!(err, TraceError::Corrupt(_)), "{err}");
        // Index mismatch: stream 1's file under stream 0's name.
        std::fs::copy(dir.join(stream_file(1)), dir.join(stream_file(0))).unwrap();
        let err = archive.stream(ProcessId(0)).unwrap_err();
        assert!(err.to_string().contains("declares process"), "{err}");
    }

    #[test]
    fn missing_stream_file_reports_path() {
        let t = sample(2);
        let dir = tmp("missingstream.pvta");
        write_archive(&t, &dir).unwrap();
        std::fs::remove_file(dir.join(stream_file(1))).unwrap();
        let archive = ArchiveCursor::open(&dir).unwrap();
        let err = archive.stream(ProcessId(1)).unwrap_err();
        assert!(err.to_string().contains("stream-1.pvts"), "{err}");
    }

    #[test]
    fn mapped_and_buffered_streams_agree() {
        let t = sample(2);
        let dir = tmp("mmapeq.pvta");
        write_archive(&t, &dir).unwrap();
        let mapped = ArchiveCursor::open_with(
            &dir,
            CursorOptions {
                mmap: true,
                ..CursorOptions::default()
            },
        )
        .unwrap();
        // A 64-byte buffer forces plenty of refills on the buffered path.
        let buffered = ArchiveCursor::open_with(
            &dir,
            CursorOptions {
                mmap: false,
                read_buffer_bytes: 64,
            },
        )
        .unwrap();
        for pid in t.registry().process_ids() {
            let a: Vec<_> = mapped
                .stream(pid)
                .unwrap()
                .collect::<Result<_, _>>()
                .unwrap();
            let b: Vec<_> = buffered
                .stream(pid)
                .unwrap()
                .collect::<Result<_, _>>()
                .unwrap();
            assert_eq!(a, b, "{pid}");
        }
    }

    #[test]
    fn mapped_and_buffered_error_offsets_agree() {
        let t = sample(1);
        let dir = tmp("mmaperr.pvta");
        write_archive(&t, &dir).unwrap();
        let path = dir.join(stream_file(0));
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();
        let mut offsets = Vec::new();
        for mmap in [true, false] {
            let archive = ArchiveCursor::open_with(
                &dir,
                CursorOptions {
                    mmap,
                    read_buffer_bytes: 64,
                },
            )
            .unwrap();
            let err = archive
                .stream(ProcessId(0))
                .unwrap()
                .collect::<Result<Vec<_>, _>>()
                .unwrap_err();
            match err {
                TraceError::CorruptStream { offset, .. } => offsets.push(offset),
                other => panic!("mmap={mmap}: expected CorruptStream, got {other}"),
            }
        }
        assert_eq!(
            offsets[0], offsets[1],
            "offsets must not depend on the read path"
        );
    }

    #[test]
    fn next_chunk_matches_next_record() {
        let t = sample(2);
        let dir = tmp("chunkeq.pvta");
        write_archive(&t, &dir).unwrap();
        let archive = ArchiveCursor::open(&dir).unwrap();
        for pid in t.registry().process_ids() {
            let singles: Vec<_> = archive
                .stream(pid)
                .unwrap()
                .collect::<Result<_, _>>()
                .unwrap();
            // Chunk sizes below, at, and above the stream length.
            for max in [1, 7, singles.len(), singles.len() + 9] {
                let mut cursor = archive.stream(pid).unwrap();
                let mut chunked = Vec::new();
                let mut chunk = Vec::new();
                while cursor.next_chunk(&mut chunk, max).unwrap() > 0 {
                    chunked.extend(chunk.iter().copied());
                }
                assert_eq!(chunked, singles, "{pid} max={max}");
                assert!(cursor.next_record().unwrap().is_none());
            }
        }
    }

    #[test]
    fn next_chunk_reports_the_same_error_as_next_record() {
        let t = sample(1);
        let dir = tmp("chunkerr.pvta");
        write_archive(&t, &dir).unwrap();
        let path = dir.join(stream_file(0));
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();
        let archive = ArchiveCursor::open(&dir).unwrap();

        let mut singles = Vec::new();
        let mut cursor = archive.stream(ProcessId(0)).unwrap();
        let single_err = loop {
            match cursor.next_record() {
                Ok(Some(r)) => singles.push(r),
                Ok(None) => panic!("truncated stream decoded clean"),
                Err(e) => break e,
            }
        };

        let mut chunked = Vec::new();
        let mut cursor = archive.stream(ProcessId(0)).unwrap();
        let mut chunk = Vec::new();
        let chunk_err = loop {
            match cursor.next_chunk(&mut chunk, 8) {
                Ok(0) => panic!("truncated stream decoded clean"),
                Ok(_) => chunked.extend(chunk.iter().copied()),
                Err(e) => {
                    // On error the chunk holds the records decoded
                    // before the offending one.
                    chunked.extend(chunk.iter().copied());
                    break e;
                }
            }
        };

        assert_eq!(chunked, singles, "events before the error must agree");
        assert_eq!(chunk_err.to_string(), single_err.to_string());
        match (chunk_err, single_err) {
            (
                TraceError::CorruptStream { offset: a, .. },
                TraceError::CorruptStream { offset: b, .. },
            ) => assert_eq!(a, b, "error offsets must not depend on chunking"),
            other => panic!("expected CorruptStream pair, got {other:?}"),
        }
    }

    #[test]
    fn next_chunk_reservation_is_bounded_by_the_input() {
        // A stream declaring 2^62 records but holding 100: an unbounded
        // chunk must fail at the end of the bytes without reserving room
        // for the declared count.
        use crate::format::varint::write_u64;
        let t = sample(1);
        let dir = tmp("hugecount.pvta");
        write_archive(&t, &dir).unwrap();
        let mut bytes = Vec::new();
        bytes.extend_from_slice(STREAM_MAGIC);
        write_u64(&mut bytes, 0).unwrap(); // declared index
        write_u64(&mut bytes, 1 << 62).unwrap(); // declared count
        for i in 0..100 {
            write_u64(&mut bytes, i % 2).unwrap(); // Enter, Leave, …
            write_u64(&mut bytes, 1).unwrap(); // delta
            write_u64(&mut bytes, 0).unwrap(); // function 0
        }
        std::fs::write(dir.join(stream_file(0)), &bytes).unwrap();
        let archive = ArchiveCursor::open(&dir).unwrap();
        let mut cursor = archive.stream(ProcessId(0)).unwrap();
        let mut out = Vec::new();
        let err = cursor.next_chunk(&mut out, usize::MAX).unwrap_err();
        assert!(matches!(err, TraceError::CorruptStream { .. }), "{err}");
        assert_eq!(out.len(), 100);
        assert!(out.capacity() < 1000, "capacity {}", out.capacity());
    }

    #[test]
    fn empty_stream_is_clean() {
        let mut b = TraceBuilder::new(Clock::microseconds());
        b.define_process("idle");
        let t = b.finish().unwrap();
        let dir = tmp("emptystream.pvta");
        write_archive(&t, &dir).unwrap();
        let archive = ArchiveCursor::open(&dir).unwrap();
        let mut cursor = archive.stream(ProcessId(0)).unwrap();
        assert_eq!(cursor.remaining(), 0);
        assert!(cursor.next_record().unwrap().is_none());
    }

    /// The one-word Enter/Leave path against the field-by-field decoder
    /// it sits in front of, on raw bytes and on encoded records.
    mod word_path {
        use super::*;
        use crate::format::varint::{write_u64, write_u64_padded};
        use proptest::prelude::*;

        fn byte() -> impl Strategy<Value = u8> {
            // Tags 0/1, stop bytes and continuation bytes, all common.
            prop_oneof![0u8..2, 0u8..0x80, 0x80u8..=0xff, Just(0xffu8)]
        }

        fn prev_time() -> impl Strategy<Value = u64> {
            prop_oneof![
                0u64..1 << 20,
                u64::MAX - (1 << 20)..=u64::MAX,
                0u64..=u64::MAX
            ]
        }

        fn value() -> impl Strategy<Value = u64> {
            prop_oneof![
                0u64..0x80,
                0u64..1 << 21,
                0u64..1 << 42,
                u32::MAX as u64 - 2..=u32::MAX as u64 + 2,
                0u64..=u64::MAX
            ]
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(4096))]

            #[test]
            fn word_path_equals_field_path_on_raw_bytes(
                buf in proptest::collection::vec(byte(), MAX_EVENT_BYTES..MAX_EVENT_BYTES + 40),
                prev in prev_time(),
            ) {
                prop_assert_eq!(
                    decode_event_slice(&buf, prev),
                    decode_event_fields(&buf, prev)
                );
            }

            /// Records of every tag, each varint written canonically or
            /// padded to ten bytes, followed by arbitrary bytes.
            #[test]
            fn word_path_equals_field_path_on_records(
                tag in prop_oneof![0u64..2, 0u64..6, 0u64..=u64::MAX],
                // Delta, then up to three payload fields; 0 = padded.
                fields in proptest::collection::vec((value(), 0u8..4), 5..6),
                tail in proptest::collection::vec(byte(), MAX_EVENT_BYTES..MAX_EVENT_BYTES + 1),
                prev in prev_time(),
            ) {
                let mut buf = Vec::new();
                let mut ends = Vec::new();
                for (i, &(v, pad)) in fields.iter().enumerate() {
                    let v = if i == 0 { tag } else { v };
                    if pad == 0 {
                        write_u64_padded(&mut buf, v).unwrap();
                    } else {
                        write_u64(&mut buf, v).unwrap();
                    }
                    ends.push(buf.len());
                }
                buf.extend_from_slice(&tail);
                let decoded = decode_event_slice(&buf, prev);
                prop_assert_eq!(decoded, decode_event_fields(&buf, prev));
                // A canonical Enter/Leave record within 8 bytes takes the
                // word path and decodes to what was written.
                let (delta, function) = (fields[1].0, fields[2].0);
                let canonical = fields[..3].iter().all(|&(_, pad)| pad != 0);
                if tag <= 1 && canonical && ends[2] <= 8 {
                    let word = u64::from_le_bytes(*buf.first_chunk::<8>().unwrap());
                    let expected = match (prev.checked_add(delta), u32::try_from(function)) {
                        (Some(time), Ok(f)) => {
                            let function = FunctionId(f);
                            let event = if tag == 0 {
                                Event::Enter { function }
                            } else {
                                Event::Leave { function }
                            };
                            Some((ends[2], time, event))
                        }
                        _ => None,
                    };
                    prop_assert_eq!(decode_enter_leave_word(word, prev), expected);
                    prop_assert_eq!(decoded, expected);
                }
            }
        }

        #[test]
        fn every_field_split_of_the_word_decodes() {
            // Delta and function lengths that exactly fill, underfill and
            // overflow the 8-byte word, at both ends of each length.
            for tag in [0u64, 1] {
                for delta_len in 1..=8u32 {
                    for function_len in 1..=6u32 {
                        // The smallest and largest values of each length.
                        let low = |len: u32| if len == 1 { 0 } else { 1u64 << (7 * (len - 1)) };
                        let high = |len: u32| (1u64 << (7 * len)) - 1;
                        for (delta, function) in [
                            (low(delta_len), low(function_len)),
                            (high(delta_len), high(function_len)),
                        ] {
                            let mut buf = Vec::new();
                            write_u64(&mut buf, tag).unwrap();
                            write_u64(&mut buf, delta).unwrap();
                            write_u64(&mut buf, function).unwrap();
                            let len = buf.len();
                            buf.resize(MAX_EVENT_BYTES, 0xff);
                            let decoded = decode_event_slice(&buf, 7);
                            assert_eq!(decoded, decode_event_fields(&buf, 7));
                            let expected = u32::try_from(function).ok().map(|f| {
                                let function = FunctionId(f);
                                let event = if tag == 0 {
                                    Event::Enter { function }
                                } else {
                                    Event::Leave { function }
                                };
                                (len, 7 + delta, event)
                            });
                            assert_eq!(decoded, expected, "tag {tag} delta {delta} fn {function}");
                            let word = u64::from_le_bytes(*buf.first_chunk::<8>().unwrap());
                            let fits = len <= 8 && expected.is_some();
                            assert_eq!(decode_enter_leave_word(word, 7).is_some(), fits);
                        }
                    }
                }
            }
        }
    }

    /// Byte flips and truncations of generated archives: every read path
    /// — `next_record`, `next_chunk` at several sizes, mapped and
    /// buffered — yields the same records and the same error, and an
    /// intact or still-valid run matches the PVT batch reader.
    mod mutation {
        use super::*;
        use crate::format::pvt;
        use crate::registry::MetricMode;
        use proptest::prelude::*;

        /// A trace of nested calls, metric samples (up to 64-bit values)
        /// and messages, with deltas from 0 to ~2^45 ticks.
        fn generated(seed: u64, processes: usize, steps: usize) -> Trace {
            let mut state = seed | 1;
            let mut next = move |bound: u64| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state % bound
            };
            let mut b = TraceBuilder::new(Clock::microseconds()).with_name("mutated");
            let functions: Vec<FunctionId> = (0..200)
                .map(|i| b.define_function(format!("f{i}"), FunctionRole::Compute))
                .collect();
            let metric = b.define_metric("cycles", MetricMode::Accumulating, "cycles");
            let pids: Vec<ProcessId> = (0..processes)
                .map(|i| b.define_process(format!("rank {i}")))
                .collect();
            for &p in &pids {
                let mut t = 0u64;
                let mut stack = Vec::new();
                for _ in 0..steps {
                    t += match next(10) {
                        0..=5 => next(4),
                        6..=8 => next(1 << 14),
                        _ => next(1 << 45),
                    };
                    let w = b.process_mut(p);
                    match next(8) {
                        0..=2 if stack.len() < 8 => {
                            let f = functions[next(functions.len() as u64) as usize];
                            w.enter(Timestamp(t), f).unwrap();
                            stack.push(f);
                        }
                        0..=4 if !stack.is_empty() => {
                            w.leave(Timestamp(t), stack.pop().unwrap()).unwrap();
                        }
                        5 => w.metric(Timestamp(t), metric, next(u64::MAX)).unwrap(),
                        6 => {
                            let to = pids[next(processes as u64) as usize];
                            w.send(Timestamp(t), to, next(1 << 20) as u32, next(1 << 40))
                                .unwrap();
                        }
                        _ => {
                            let from = pids[next(processes as u64) as usize];
                            w.recv(Timestamp(t), from, next(300) as u32, next(1 << 10))
                                .unwrap();
                        }
                    }
                }
                while let Some(f) = stack.pop() {
                    b.process_mut(p).leave(Timestamp(t), f).unwrap();
                }
            }
            b.finish().unwrap()
        }

        /// Records decoded before the stream ended or failed, and the
        /// failure's `Display` and offset.
        type Run = (Vec<EventRecord>, Option<(String, Option<u64>)>);

        fn failure(e: TraceError) -> Option<(String, Option<u64>)> {
            let offset = match e {
                TraceError::CorruptStream { offset, .. } => Some(offset),
                _ => None,
            };
            Some((e.to_string(), offset))
        }

        fn run(archive: &ArchiveCursor, pid: ProcessId, chunk: Option<usize>) -> Run {
            let mut records = Vec::new();
            let mut cursor = match archive.stream(pid) {
                Ok(c) => c,
                Err(e) => return (records, failure(e)),
            };
            let mut buf = Vec::new();
            loop {
                let step = match chunk {
                    None => cursor.next_record().map(|r| {
                        records.extend(r);
                        usize::from(r.is_some())
                    }),
                    Some(max) => {
                        let n = cursor.next_chunk(&mut buf, max);
                        records.extend_from_slice(&buf);
                        n
                    }
                };
                match step {
                    Ok(0) => return (records, None),
                    Ok(_) => {}
                    Err(e) => return (records, failure(e)),
                }
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(160))]

            #[test]
            fn read_paths_agree_on_flipped_and_truncated_archives(
                seed in 0u64..=u64::MAX,
                processes in 1usize..4,
                steps in 1usize..120,
                victim in 0usize..4,
                flips in proptest::collection::vec((0usize..4096, 1u8..=255), 0..4),
                cut in prop_oneof![Just(0usize), 0usize..64],
            ) {
                let trace = generated(seed, processes, steps);
                let dir = tmp(&format!("mutation-{}.pvta", std::process::id()));
                let _ = std::fs::remove_dir_all(&dir);
                write_archive(&trace, &dir).unwrap();
                let victim = victim % processes;
                let path = dir.join(stream_file(victim));
                let mut bytes = std::fs::read(&path).unwrap();
                for &(at, mask) in &flips {
                    let at = at % bytes.len();
                    bytes[at] ^= mask;
                }
                bytes.truncate(bytes.len() - cut.min(bytes.len()));
                std::fs::write(&path, &bytes).unwrap();

                // A 1-byte window request maps every file over 64 bytes;
                // the buffered path refills every 64 bytes.
                let mapped = ArchiveCursor::open_with(
                    &dir,
                    CursorOptions { mmap: true, read_buffer_bytes: 1 },
                )
                .unwrap();
                let buffered = ArchiveCursor::open_with(
                    &dir,
                    CursorOptions { mmap: false, read_buffer_bytes: 64 },
                )
                .unwrap();
                let mut runs = Vec::new();
                for pid in trace.registry().process_ids() {
                    let reference = run(&mapped, pid, None);
                    for chunk in [Some(1), Some(7), Some(1024)] {
                        let got = run(&mapped, pid, chunk);
                        prop_assert!(got == reference, "mapped {pid} {chunk:?}: {got:?} vs {reference:?}");
                    }
                    for chunk in [None, Some(7), Some(1024)] {
                        let got = run(&buffered, pid, chunk);
                        prop_assert!(got == reference, "buffered {pid} {chunk:?}: {got:?} vs {reference:?}");
                    }
                    if pid.index() != victim || (flips.is_empty() && cut == 0) {
                        prop_assert_eq!(&reference, &(trace.stream(pid).records().to_vec(), None));
                    }
                    runs.push(reference);
                }

                // When every stream still reads clean, a PVT file made of
                // the same stream bodies reads to the same records.
                if runs.iter().all(|(_, err)| err.is_none()) {
                    let whole = pvt::to_bytes(&trace).unwrap();
                    let body = |i: usize| {
                        let file = std::fs::read(dir.join(stream_file(i))).unwrap();
                        let (_, index_len) = decode_u64_slice(&file[4..]).unwrap();
                        file[4 + index_len..].to_vec()
                    };
                    let original: usize = trace
                        .streams()
                        .iter()
                        .map(|s| {
                            let mut b = Vec::new();
                            pvt::write_stream_events(s.records(), &mut b).unwrap();
                            b.len()
                        })
                        .sum();
                    let header = whole.len() - original - 4;
                    let mut spliced = whole[..header].to_vec();
                    for i in 0..processes {
                        spliced.extend(body(i));
                    }
                    spliced.extend_from_slice(&whole[whole.len() - 4..]);
                    let read = pvt::from_bytes(&spliced);
                    prop_assert!(read.is_ok(), "{:?}", read.err());
                    let read = read.unwrap();
                    for (pid, (records, _)) in read.registry().process_ids().zip(&runs) {
                        prop_assert_eq!(read.stream(pid).records(), &records[..]);
                    }
                }
                let _ = std::fs::remove_dir_all(&dir);
            }
        }
    }
}
