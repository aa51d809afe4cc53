//! Input files: Table I twins from `nwhy-gen`, generated once per
//! (profile, scale, twin seed) and cached on disk.
//!
//! The twin seed (`--twin-seed`, default 42) fixes the dataset; the run
//! seed (`--seed`) draws what a run asks of it (BFS sources, sampled
//! rows). A new twin per run would measure the generator, not the
//! program: from one generator seed to the next, the s-line work of an
//! Orkut-group twin at 1/1000 varies 35× (39.7k to 7.1M emitted edges).

use nwhy_core::{Hypergraph, Id};
use nwhy_gen::profiles::profile_by_name;
use std::fs::{self, File};
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

/// On-disk format the program parses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// Hyperedge list, one hyperedge per line.
    Hgr,
    /// Matrix Market coordinate incidence matrix.
    Mtx,
}

impl Format {
    fn ext(self) -> &'static str {
        match self {
            Format::Hgr => "hgr",
            Format::Mtx => "mtx",
        }
    }
}

/// Sizes of an input as the reader of its format reports them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sizes {
    pub hyperedges: usize,
    pub hypernodes: usize,
    pub incidences: usize,
}

/// A generated input file and the sizes its reader must report.
#[derive(Debug, Clone)]
pub struct Input {
    pub path: PathBuf,
    pub bytes: u64,
    pub sizes: Sizes,
}

/// Which twin to build and how.
#[derive(Debug, Clone, Copy)]
pub struct TwinSpec {
    pub profile: &'static str,
    pub scale: usize,
    pub twin_seed: u64,
    pub format: Format,
}

/// Returns the input for `twin`, generating it into `cache` unless it
/// is already there.
pub fn prepare(cache: &Path, twin: TwinSpec) -> std::io::Result<Input> {
    fs::create_dir_all(cache)?;
    let name = format!(
        "{}-{}-t{}.{}",
        twin.profile,
        twin.scale,
        twin.twin_seed,
        twin.format.ext()
    );
    let path = cache.join(&name);
    let sizes_path = cache.join(format!("{name}.sizes"));
    if !path.exists() {
        let profile = profile_by_name(twin.profile).ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::InvalidInput, "unknown profile")
        })?;
        let h = profile.generate(twin.scale, twin.twin_seed);
        let sizes = reader_sizes(&h, twin.format);
        fs::write(
            &sizes_path,
            format!(
                "{} {} {}\n",
                sizes.hyperedges, sizes.hypernodes, sizes.incidences
            ),
        )?;
        // Written under a temporary name, then renamed: a file under the
        // final name is always complete.
        let tmp = cache.join(format!("{name}.tmp{}", std::process::id()));
        let mut w = BufWriter::new(File::create(&tmp)?);
        let written = match twin.format {
            Format::Hgr => nwhy_io::write_hyperedge_list(&mut w, &h),
            Format::Mtx => nwhy_io::write_matrix_market(&mut w, &h),
        };
        written.map_err(|e| std::io::Error::other(e.to_string()))?;
        w.flush()?;
        drop(w);
        fs::rename(&tmp, &path)?;
    }
    let text = fs::read_to_string(&sizes_path)?;
    let n: Vec<usize> = text
        .split_whitespace()
        .filter_map(|t| t.parse().ok())
        .collect();
    let [hyperedges, hypernodes, incidences] = n[..] else {
        return Err(std::io::Error::other(format!(
            "malformed {}",
            sizes_path.display()
        )));
    };
    Ok(Input {
        bytes: fs::metadata(&path)?.len(),
        path,
        sizes: Sizes {
            hyperedges,
            hypernodes,
            incidences,
        },
    })
}

/// Sizes the reader of `format` reports for `h`: the hyperedge-list
/// reader drops trailing empty hyperedges.
fn reader_sizes(h: &Hypergraph, format: Format) -> Sizes {
    let hyperedges = match format {
        Format::Hgr => (0..h.num_hyperedges())
            .rposition(|e| h.edge_degree(to_id(e)) > 0)
            .map_or(0, |e| e + 1),
        Format::Mtx => h.num_hyperedges(),
    };
    Sizes {
        hyperedges,
        hypernodes: h.num_hypernodes(),
        incidences: h.num_incidences(),
    }
}

pub fn to_id(i: usize) -> Id {
    Id::try_from(i).expect("twin sizes fit the 32-bit ID space")
}
