//! Crash and restart: build the image a killed leader would leave on
//! disk, reopen it, and count acknowledged updates that did not survive.
//!
//! Killing a process leaves the operating system's cache intact, so the
//! benchmark itself discards the bytes that were never flushed: the
//! image keeps the log exactly as long as it was when the last ack
//! returned, plus a torn prefix of what was appended after it.

use std::path::{Path, PathBuf};

use crate::api::{list_segments, DurableDatabase, ObjectId};
use crate::fleet::Fleet;

/// The end of the log at the moment the last ack returned.
#[derive(Debug, Clone)]
pub struct AckedTail {
    segment: PathBuf,
    len: u64,
}

impl AckedTail {
    pub fn mark(dir: &Path) -> Result<AckedTail, String> {
        let segments = list_segments(dir).map_err(|e| format!("list segments: {e}"))?;
        let (_, segment) = segments.last().ok_or("the leader has no log segment")?;
        let len = std::fs::metadata(segment).map_err(|e| e.to_string())?.len();
        Ok(AckedTail {
            segment: segment.clone(),
            len,
        })
    }
}

/// Copies the leader's directory to `image` and cuts the log back to
/// the acked tail plus `torn` (0..1) of the bytes appended after it.
pub fn crash_image(dir: &Path, image: &Path, tail: &AckedTail, torn: f64) -> Result<(), String> {
    let io = |e: std::io::Error| format!("crash image: {e}");
    std::fs::create_dir_all(image).map_err(io)?;
    for entry in std::fs::read_dir(dir).map_err(io)? {
        let entry = entry.map_err(io)?;
        if entry.file_type().map_err(io)?.is_file() {
            std::fs::copy(entry.path(), image.join(entry.file_name())).map_err(io)?;
        }
    }
    let tail_name = tail.segment.file_name().ok_or("segment without a name")?;
    // Segments in log order from the acked tail on, with the length of
    // each that was acked.
    let later: Vec<(PathBuf, u64)> = list_segments(image)
        .map_err(|e| format!("list image segments: {e}"))?
        .into_iter()
        .map(|(_, path)| path)
        .skip_while(|path| path.file_name() != Some(tail_name))
        .enumerate()
        .map(|(i, path)| (path, if i == 0 { tail.len } else { 0 }))
        .collect();
    let mut sizes = Vec::with_capacity(later.len());
    for (path, acked) in &later {
        sizes.push(std::fs::metadata(path).map_err(io)?.len() - acked);
    }
    let mut keep = (sizes.iter().sum::<u64>() as f64 * torn) as u64;
    for ((path, acked), unacked) in later.iter().zip(sizes) {
        let kept = keep.min(unacked);
        keep -= kept;
        if acked + kept == 0 {
            std::fs::remove_file(path).map_err(io)?;
        } else {
            let file = std::fs::OpenOptions::new()
                .write(true)
                .open(path)
                .map_err(io)?;
            file.set_len(acked + kept).map_err(io)?;
        }
    }
    Ok(())
}

/// Acknowledged updates whose effect is not readable in `reopened`.
/// `last_acked[id]` is the trace index of the newest update of vehicle
/// `id` that was acknowledged (`u32::MAX` for none); the reopened state
/// must hold that update or a newer one of the same vehicle.
pub fn acked_lost(reopened: &DurableDatabase, fleet: &Fleet, last_acked: &[u32]) -> u64 {
    reopened.database().with_read(|db| {
        let mut lost = 0;
        for (id, &idx) in last_acked.iter().enumerate() {
            let Ok(object) = db.moving(ObjectId(id as u64)) else {
                lost += 1;
                continue;
            };
            let Some(update) = fleet.updates.get(idx as usize) else {
                continue;
            };
            let attr = &object.attr;
            let same = attr.start_arc == update.arc && attr.speed == update.speed;
            if attr.start_time < update.time || (attr.start_time == update.time && !same) {
                lost += 1;
            }
        }
        lost
    })
}
