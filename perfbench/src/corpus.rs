//! The seeded corpus shared by all three workloads: UniProt-shaped flat
//! entries (`ac,id,de,gn,os,fn,kw,sq`, after `cdb_workload::uniprot`).
//! The program only ever sees what this module generates from the seed.

use std::collections::{BTreeMap, BTreeSet};

use cdb_core::model::Atom;

/// The non-key fields of every entry, in insertion order.
pub const FIELDS: [&str; 7] = ["id", "de", "gn", "os", "fn", "kw", "sq"];

/// The fields curators edit: annotation, never identity.
pub const EDITABLE: [&str; 3] = ["de", "fn", "kw"];

pub const ORGANISMS: [&str; 4] = [
    "HOMO SAPIENS",
    "MUS MUSCULUS",
    "RATTUS NORVEGICUS",
    "DANIO RERIO",
];
const KEYWORDS: [&str; 8] = [
    "BRAIN",
    "NEURONE",
    "PHOSPHORYLATION",
    "MULTIGENE FAMILY",
    "KINASE",
    "MEMBRANE",
    "TRANSPORT",
    "SIGNAL",
];
const AMINO: &[u8] = b"ACDEFGHIKLMNPQRSTVWY";
const ALNUM: &[u8] = b"0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ";

/// SplitMix64: small, seedable, and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// True with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64) < p
    }

    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }
}

/// One generated entry: its accession and its field values.
#[derive(Debug, Clone)]
pub struct Entry {
    pub ac: String,
    pub fields: BTreeMap<String, Atom>,
}

impl Entry {
    /// The fields in the `(&str, Atom)` form `add_entry` takes.
    pub fn field_list(&self) -> Vec<(&str, Atom)> {
        FIELDS
            .iter()
            .map(|f| (*f, self.fields[*f].clone()))
            .collect()
    }
}

/// The generator: hands out entries with fresh, unique accessions.
#[derive(Debug)]
pub struct Corpus {
    rng: Rng,
    used: BTreeSet<String>,
    genes: usize,
    serial: usize,
}

impl Corpus {
    /// A generator whose gene names are shared by about three entries
    /// each among the first `entries` (the self-join has matches).
    pub fn new(seed: u64, entries: usize) -> Self {
        Corpus {
            rng: Rng::new(seed),
            used: BTreeSet::new(),
            genes: (entries / 3).max(1),
            serial: 0,
        }
    }

    /// A UniProt-style accession, `[OPQ][0-9][A-Z0-9]{3}[0-9]`, never
    /// handed out before.
    fn accession(&mut self) -> String {
        loop {
            let r = &mut self.rng;
            let mut ac = String::with_capacity(6);
            ac.push(*r.pick(&['O', 'P', 'Q']));
            ac.push((b'0' + r.below(10) as u8) as char);
            for _ in 0..3 {
                ac.push(ALNUM[r.below(ALNUM.len())] as char);
            }
            ac.push((b'0' + r.below(10) as u8) as char);
            if self.used.insert(ac.clone()) {
                return ac;
            }
        }
    }

    /// A fresh entry.
    pub fn entry(&mut self) -> Entry {
        let ac = self.accession();
        let n = self.serial;
        self.serial += 1;
        let r = &mut self.rng;
        let os = *r.pick(&ORGANISMS);
        let kws: Vec<&str> = (0..1 + r.below(3)).map(|_| *r.pick(&KEYWORDS)).collect();
        let sq: String = (0..60)
            .map(|_| AMINO[r.below(AMINO.len())] as char)
            .collect();
        let gene = r.below(self.genes);
        let values = [
            ("id", format!("{}_HUMAN", &ac[..5])),
            ("de", format!("PROTEIN {n} (FAMILY {})", n % 17)),
            ("gn", format!("GN{gene}")),
            ("os", os.to_owned()),
            ("fn", format!("ACTIVATES PATHWAY {}", r.below(29))),
            ("kw", kws.join("; ")),
            ("sq", sq),
        ];
        Entry {
            ac,
            fields: values
                .into_iter()
                .map(|(f, v)| (f.to_owned(), Atom::Str(v)))
                .collect(),
        }
    }

    /// `n` fresh entries.
    pub fn entries(&mut self, n: usize) -> Vec<Entry> {
        (0..n).map(|_| self.entry()).collect()
    }

    /// A new value for an editable field, tagged with `rev` so every
    /// edit writes something the oracle can tell apart.
    pub fn edit_value(&mut self, field: &str, rev: u64) -> Atom {
        let r = &mut self.rng;
        let text = match field {
            "kw" => format!("{}; REV {rev}", r.pick(&KEYWORDS)),
            "de" => format!("PROTEIN REVISED {} (REV {rev})", r.below(1000)),
            _ => format!("ACTIVATES PATHWAY {} (REV {rev})", r.below(29)),
        };
        Atom::Str(text)
    }
}

/// Range-shard bounds taken from the generated keys: the key at each
/// `i/shards` quantile. `ShardMap::uniform` splits printable ASCII at
/// fixed letters, which would put every `O`/`P`/`Q` accession together.
pub fn split_bounds(keys: &[String], shards: usize) -> Vec<String> {
    let mut sorted = keys.to_vec();
    sorted.sort();
    (1..shards)
        .map(|i| sorted[i * sorted.len() / shards].clone())
        .collect()
}
