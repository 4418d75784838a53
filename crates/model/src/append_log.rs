//! Append-only line logs: the one framing rule shared by the serve
//! journal and the shard partials.
//!
//! A record is a line ending in `\n`, written with a single `write` and
//! flushed. A crash, short write or full disk can cut off the record
//! being written, leaving a *torn tail*: the bytes after the log's last
//! `\n`. Readers drop a torn tail ([`split`]), and a writer resuming the
//! log truncates it ([`reopen`]) so the next record starts on a line
//! boundary instead of being glued to the fragment. A whole line that
//! does not parse is corruption, for the caller to report: this writer
//! never produces one.

use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::Path;

/// Create a new log whose first record is `line`. Refuses to overwrite
/// an existing file.
pub fn create(path: &Path, line: String) -> io::Result<File> {
    let mut file = OpenOptions::new()
        .create_new(true)
        .append(true)
        .open(path)?;
    append(&mut file, line)?;
    Ok(file)
}

/// Open a log for appending, creating it when missing, and truncate its
/// torn tail. The last `\n` is found by reading back from the end, so
/// resuming a long log does not re-read it.
pub fn reopen(path: &Path) -> io::Result<File> {
    let mut file = OpenOptions::new()
        .create(true)
        .read(true)
        .append(true)
        .open(path)?;
    let len = file.metadata()?.len();
    let mut buf = [0u8; 4096];
    let mut end = len;
    let keep = loop {
        if end == 0 {
            break 0;
        }
        let start = end.saturating_sub(buf.len() as u64);
        let chunk = &mut buf[..(end - start) as usize];
        file.seek(SeekFrom::Start(start))?;
        file.read_exact(chunk)?;
        if let Some(i) = chunk.iter().rposition(|&b| b == b'\n') {
            break start + i as u64 + 1;
        }
        end = start;
    };
    if keep < len {
        file.set_len(keep)?;
    }
    Ok(file)
}

/// Append one record: `line` plus its `\n` in a single write, flushed.
/// `line` must not contain a newline.
pub fn append(file: &mut File, mut line: String) -> io::Result<()> {
    debug_assert!(!line.contains('\n'), "a record is one line");
    line.push('\n');
    file.write_all(line.as_bytes())?;
    file.flush()
}

/// Split a log's contents into its whole lines (without their `\n`)
/// and its torn tail (empty when the log ends on a line boundary).
#[must_use]
pub fn split(text: &str) -> (std::str::SplitTerminator<'_, char>, &str) {
    let cut = text.rfind('\n').map_or(0, |i| i + 1);
    let (whole, torn) = text.split_at(cut);
    (whole.split_terminator('\n'), torn)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("iosched-append-log-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        let _ = std::fs::remove_file(&path);
        path
    }

    /// Cut a log at every byte offset, reopen it and append: the result
    /// is always the whole lines that survived the cut plus the new one.
    #[test]
    fn reopen_truncates_any_torn_tail_before_appending() {
        let path = tmp("cut.log");
        // Long enough that the backwards scan crosses a chunk boundary.
        let long = "x".repeat(5_000);
        let records = ["manifest", long.as_str(), "", "last"];
        let full: String = records.iter().map(|r| format!("{r}\n")).collect();
        for cut in 0..=full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let mut file = reopen(&path).unwrap();
            append(&mut file, "new".into()).unwrap();
            drop(file);
            let text = std::fs::read_to_string(&path).unwrap();
            let (lines, torn) = split(&text);
            let kept = full[..cut].matches('\n').count();
            let mut expected: Vec<&str> = records[..kept].to_vec();
            expected.push("new");
            assert_eq!(lines.collect::<Vec<_>>(), expected, "cut at {cut}");
            assert_eq!(torn, "", "cut at {cut}");
        }
        std::fs::remove_file(&path).unwrap();
        // A missing log is created empty.
        let mut file = reopen(&path).unwrap();
        append(&mut file, "only".into()).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "only\n");
    }
}
