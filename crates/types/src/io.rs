//! Dataset (de)serialization: JSON Lines, one building per line.
//!
//! JSONL keeps memory bounded when streaming large corpora and diffs
//! cleanly under version control.

use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::Path;

use crate::building::Building;
use crate::dataset::Dataset;
use crate::error::TypeError;
use crate::json::{Json, Reader, ToJson};

/// Writes a dataset as JSON Lines: a one-line header object followed by one
/// building object per line.
///
/// # Errors
///
/// Returns [`TypeError::Io`] on filesystem or serialization failure.
pub fn save_jsonl(dataset: &Dataset, path: impl AsRef<Path>) -> Result<(), TypeError> {
    let file = File::create(path.as_ref())?;
    let mut w = BufWriter::new(file);
    let header = Json::obj([
        ("name", Json::Str(dataset.name().to_owned())),
        ("buildings", Json::Num(dataset.len() as f64)),
    ]);
    writeln!(w, "{header}").map_err(TypeError::from)?;
    for b in dataset.buildings() {
        writeln!(w, "{}", b.to_json()).map_err(TypeError::from)?;
    }
    w.flush().map_err(TypeError::from)
}

/// Reads a dataset previously written by [`save_jsonl`]. Each building
/// line is decoded by [`Building::read`].
///
/// # Errors
///
/// Returns [`TypeError::Io`] if the file is missing, the header is
/// malformed, any building line fails to parse or validate, or the
/// file holds a different number of building lines than its header's
/// `buildings` count (a corpus cut at a line boundary).
pub fn load_jsonl(path: impl AsRef<Path>) -> Result<Dataset, TypeError> {
    let file = File::open(path.as_ref())?;
    let mut lines = BufReader::new(file).lines();
    let header_line = lines
        .next()
        .ok_or_else(|| TypeError::Io("empty dataset file".into()))??;
    let header = Json::parse(&header_line)?;
    let name = header
        .get("name")
        .and_then(|v| v.as_str())
        .ok_or_else(|| TypeError::Io("header missing dataset name".into()))?
        .to_owned();
    let expected = header
        .get("buildings")
        .and_then(Json::as_usize)
        .ok_or_else(|| TypeError::Io("header missing building count".into()))?;
    let mut buildings = Vec::new();
    for line in lines {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let mut r = Reader::new(&line);
        let building = r.decode(Building::read)?;
        r.finish()?;
        buildings.push(building?);
    }
    if buildings.len() != expected {
        return Err(TypeError::Io(format!(
            "header says {expected} buildings but the file holds {}",
            buildings.len()
        )));
    }
    Ok(Dataset::new(name, buildings))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::floor::FloorId;
    use crate::mac::MacAddr;
    use crate::rssi::Rssi;
    use crate::sample::SignalSample;

    fn demo_dataset() -> Dataset {
        let s = SignalSample::builder(0)
            .reading(MacAddr::from_u64(5), Rssi::new(-42.0).unwrap())
            .build();
        let b = Building::new("bldg-1", 1, vec![s], vec![FloorId::BOTTOM]).unwrap();
        Dataset::new("demo", vec![b])
    }

    #[test]
    fn save_load_round_trip() {
        let dir = std::env::temp_dir().join("fis_types_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ds.jsonl");
        let ds = demo_dataset();
        save_jsonl(&ds, &path).unwrap();
        let back = load_jsonl(&path).unwrap();
        assert_eq!(back, ds);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_missing_file_errors() {
        assert!(load_jsonl("/nonexistent/definitely/missing.jsonl").is_err());
    }

    #[test]
    fn load_empty_file_errors() {
        let dir = std::env::temp_dir().join("fis_types_io_test2");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("empty.jsonl");
        std::fs::write(&path, "").unwrap();
        assert!(load_jsonl(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_truncated_corpus_errors() {
        let dir = std::env::temp_dir().join("fis_types_io_test4");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cut.jsonl");
        let building = demo_dataset().buildings()[0].to_json();
        std::fs::write(
            &path,
            format!("{{\"name\":\"x\",\"buildings\":2}}\n{building}\n"),
        )
        .unwrap();
        let err = load_jsonl(&path).unwrap_err();
        assert!(matches!(err, TypeError::Io(_)), "{err:?}");
        assert!(
            err.to_string()
                .contains("header says 2 buildings but the file holds 1"),
            "{err}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_garbage_building_errors() {
        let dir = std::env::temp_dir().join("fis_types_io_test3");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.jsonl");
        std::fs::write(&path, "{\"name\":\"x\",\"buildings\":1}\nnot json\n").unwrap();
        assert!(load_jsonl(&path).is_err());
        std::fs::remove_file(&path).ok();
    }
}
