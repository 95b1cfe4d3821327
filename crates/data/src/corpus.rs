//! The experiment corpus: synthetic analogues of the paper's 14 datasets.
//!
//! The paper (Table 1) evaluates on datasets from the LUCS/KDD, UCI and
//! MULAN repositories plus the Mammals atlas and the 2011 Finnish election
//! engine — none of which we can redistribute. Each [`PaperDataset`] pairs
//! the *paper-reported* statistics (kept verbatim for comparison by the
//! `table1` runner of `twoview-eval`) with a [`SyntheticSpec`] matched on `|D|`, `|I_L|`,
//! `|I_R|` and the two densities, and with planted cross-view structure
//! whose strength is tuned so the corpus spans the paper's compressibility
//! range (House ≈ 49% … Nursery ≈ 98%).
//!
//! Four datasets used in the paper's qualitative figures get fully named
//! vocabularies (House votes, Mammals species, CAL500 music semantics,
//! Finnish election profiles) so example rules remain readable.

use crate::items::Vocabulary;
use crate::synthetic::{generate_with_vocab, StructureSpec, SyntheticDataset, SyntheticSpec};

/// One of the 14 datasets of the paper's evaluation (Table 1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // variants are dataset names; see `PaperDataset::name`
pub enum PaperDataset {
    Abalone,
    Adult,
    Cal500,
    Car,
    ChessKrVk,
    Crime,
    Elections,
    Emotions,
    House,
    Mammals,
    Nursery,
    Tictactoe,
    Wine,
    Yeast,
}

/// Statistics reported by the paper, for side-by-side comparison.
#[derive(Clone, Copy, Debug)]
pub struct PaperStats {
    /// `|D|` (Table 1).
    pub n: usize,
    /// `|I_L|` (Table 1).
    pub n_left: usize,
    /// `|I_R|` (Table 1).
    pub n_right: usize,
    /// Density of the left view (Table 1).
    pub d_left: f64,
    /// Density of the right view (Table 1).
    pub d_right: f64,
    /// Uncompressed size `L(D, ∅)` in bits (Table 1).
    pub l_empty: f64,
    /// `minsup` used for SELECT/GREEDY in Table 2 (1 for the small datasets).
    pub minsup: usize,
    /// Number of rules found by TRANSLATOR-SELECT(1) (Table 2).
    pub select1_rules: usize,
    /// Compression ratio `L%` of TRANSLATOR-SELECT(1) (Table 2).
    pub select1_l_pct: f64,
}

impl PaperDataset {
    /// All 14 datasets, in Table 1 order.
    pub const ALL: [PaperDataset; 14] = [
        PaperDataset::Abalone,
        PaperDataset::Adult,
        PaperDataset::Cal500,
        PaperDataset::Car,
        PaperDataset::ChessKrVk,
        PaperDataset::Crime,
        PaperDataset::Elections,
        PaperDataset::Emotions,
        PaperDataset::House,
        PaperDataset::Mammals,
        PaperDataset::Nursery,
        PaperDataset::Tictactoe,
        PaperDataset::Wine,
        PaperDataset::Yeast,
    ];

    /// The 7 moderate-size datasets of Table 2 (top), run with `minsup = 1`
    /// and tractable for `TRANSLATOR-EXACT`.
    pub const SMALL: [PaperDataset; 7] = [
        PaperDataset::Abalone,
        PaperDataset::Car,
        PaperDataset::ChessKrVk,
        PaperDataset::Nursery,
        PaperDataset::Tictactoe,
        PaperDataset::Wine,
        PaperDataset::Yeast,
    ];

    /// The 7 larger datasets of Table 2 (bottom), run with tuned `minsup`.
    pub const LARGE: [PaperDataset; 7] = [
        PaperDataset::Adult,
        PaperDataset::Cal500,
        PaperDataset::Crime,
        PaperDataset::Elections,
        PaperDataset::Emotions,
        PaperDataset::House,
        PaperDataset::Mammals,
    ];

    /// Canonical lowercase name as used throughout the paper.
    pub fn name(self) -> &'static str {
        match self {
            PaperDataset::Abalone => "Abalone",
            PaperDataset::Adult => "Adult",
            PaperDataset::Cal500 => "CAL500",
            PaperDataset::Car => "Car",
            PaperDataset::ChessKrVk => "ChessKRvK",
            PaperDataset::Crime => "Crime",
            PaperDataset::Elections => "Elections",
            PaperDataset::Emotions => "Emotions",
            PaperDataset::House => "House",
            PaperDataset::Mammals => "Mammals",
            PaperDataset::Nursery => "Nursery",
            PaperDataset::Tictactoe => "Tictactoe",
            PaperDataset::Wine => "Wine",
            PaperDataset::Yeast => "Yeast",
        }
    }

    /// Looks a dataset up by (case-insensitive) name.
    pub fn by_name(name: &str) -> Option<PaperDataset> {
        let lower = name.to_ascii_lowercase();
        PaperDataset::ALL
            .into_iter()
            .find(|d| d.name().to_ascii_lowercase() == lower)
    }

    /// The statistics the paper reports for this dataset (Tables 1 and 2).
    pub fn paper(self) -> PaperStats {
        match self {
            PaperDataset::Abalone => PaperStats {
                n: 4177,
                n_left: 27,
                n_right: 31,
                d_left: 0.185,
                d_right: 0.129,
                l_empty: 170_748.0,
                minsup: 1,
                select1_rules: 86,
                select1_l_pct: 54.86,
            },
            PaperDataset::Adult => PaperStats {
                n: 48_842,
                n_left: 44,
                n_right: 53,
                d_left: 0.179,
                d_right: 0.132,
                l_empty: 2_845_491.0,
                minsup: 4885,
                select1_rules: 8,
                select1_l_pct: 54.29,
            },
            PaperDataset::Cal500 => PaperStats {
                n: 502,
                n_left: 78,
                n_right: 97,
                d_left: 0.241,
                d_right: 0.074,
                l_empty: 76_862.0,
                minsup: 20,
                select1_rules: 59,
                select1_l_pct: 86.45,
            },
            PaperDataset::Car => PaperStats {
                n: 1728,
                n_left: 15,
                n_right: 10,
                d_left: 0.267,
                d_right: 0.300,
                l_empty: 42_708.0,
                minsup: 1,
                select1_rules: 9,
                select1_l_pct: 94.67,
            },
            PaperDataset::ChessKrVk => PaperStats {
                n: 28_056,
                n_left: 24,
                n_right: 34,
                d_left: 0.167,
                d_right: 0.088,
                l_empty: 889_555.0,
                minsup: 1,
                select1_rules: 311,
                select1_l_pct: 94.94,
            },
            PaperDataset::Crime => PaperStats {
                n: 2215,
                n_left: 244,
                n_right: 294,
                d_left: 0.201,
                d_right: 0.194,
                l_empty: 1_865_057.0,
                minsup: 200,
                select1_rules: 144,
                select1_l_pct: 87.45,
            },
            PaperDataset::Elections => PaperStats {
                n: 1846,
                n_left: 82,
                n_right: 867,
                d_left: 0.061,
                d_right: 0.034,
                l_empty: 451_823.0,
                minsup: 47,
                select1_rules: 80,
                select1_l_pct: 93.28,
            },
            PaperDataset::Emotions => PaperStats {
                n: 593,
                n_left: 430,
                n_right: 12,
                d_left: 0.167,
                d_right: 0.501,
                l_empty: 375_288.0,
                minsup: 40,
                select1_rules: 22,
                select1_l_pct: 97.35,
            },
            PaperDataset::House => PaperStats {
                n: 435,
                n_left: 26,
                n_right: 24,
                d_left: 0.347,
                d_right: 0.334,
                l_empty: 31_625.0,
                minsup: 8,
                select1_rules: 37,
                select1_l_pct: 49.26,
            },
            PaperDataset::Mammals => PaperStats {
                n: 2575,
                n_left: 95,
                n_right: 94,
                d_left: 0.172,
                d_right: 0.169,
                l_empty: 468_742.0,
                minsup: 773,
                select1_rules: 55,
                select1_l_pct: 68.23,
            },
            PaperDataset::Nursery => PaperStats {
                n: 12_960,
                n_left: 19,
                n_right: 13,
                d_left: 0.263,
                d_right: 0.308,
                l_empty: 453_443.0,
                minsup: 1,
                select1_rules: 27,
                select1_l_pct: 98.36,
            },
            PaperDataset::Tictactoe => PaperStats {
                n: 958,
                n_left: 15,
                n_right: 14,
                d_left: 0.333,
                d_right: 0.357,
                l_empty: 36_396.0,
                minsup: 1,
                select1_rules: 64,
                select1_l_pct: 85.20,
            },
            PaperDataset::Wine => PaperStats {
                n: 178,
                n_left: 35,
                n_right: 33,
                d_left: 0.200,
                d_right: 0.212,
                l_empty: 11_608.0,
                minsup: 1,
                select1_rules: 27,
                select1_l_pct: 69.15,
            },
            PaperDataset::Yeast => PaperStats {
                n: 1484,
                n_left: 24,
                n_right: 26,
                d_left: 0.167,
                d_right: 0.192,
                l_empty: 52_697.0,
                minsup: 1,
                select1_rules: 32,
                select1_l_pct: 82.73,
            },
        }
    }

    /// Planted-structure strength, tuned per dataset so compressibility
    /// ranks like the paper (strong → House/Adult/Abalone, weak → Nursery).
    fn structure(self) -> StructureSpec {
        let s = |n, occ, conf, bidir, ls, rs| StructureSpec {
            n_concepts: n,
            occurrence: occ,
            confidence: conf,
            item_fire: 0.95,
            bidir_fraction: bidir,
            left_size: ls,
            right_size: rs,
            burst_len: 1,
        };
        match self {
            PaperDataset::House => s(10, 0.26, 0.88, 0.5, (2, 4), (2, 3)),
            PaperDataset::Abalone => s(6, 0.22, 0.90, 0.5, (2, 4), (2, 3)),
            PaperDataset::Adult => s(10, 0.22, 0.90, 0.4, (2, 4), (2, 3)),
            PaperDataset::Wine => s(7, 0.22, 0.85, 0.5, (2, 4), (2, 3)),
            // Mammals' paper minsup is 30% of |D| — concepts must occur
            // above that frequency to be minable at all.
            PaperDataset::Mammals => s(12, 0.40, 0.85, 0.5, (2, 4), (2, 3)),
            PaperDataset::Yeast => s(5, 0.15, 0.80, 0.4, (2, 3), (2, 3)),
            PaperDataset::Tictactoe => s(5, 0.14, 0.75, 0.4, (2, 3), (2, 3)),
            PaperDataset::Cal500 => s(12, 0.16, 0.76, 0.4, (2, 4), (2, 3)),
            PaperDataset::Crime => s(30, 0.18, 0.78, 0.4, (2, 4), (2, 3)),
            PaperDataset::Elections => s(18, 0.10, 0.72, 0.3, (2, 3), (2, 3)),
            PaperDataset::Car => s(3, 0.10, 0.60, 0.3, (2, 3), (1, 2)),
            PaperDataset::ChessKrVk => s(5, 0.06, 0.60, 0.3, (2, 3), (2, 3)),
            PaperDataset::Emotions => s(5, 0.18, 0.80, 0.3, (2, 3), (1, 2)),
            PaperDataset::Nursery => s(2, 0.05, 0.50, 0.3, (2, 3), (1, 2)),
        }
    }

    /// The synthetic spec for this dataset (paper-scale).
    pub fn spec(self) -> SyntheticSpec {
        let p = self.paper();
        SyntheticSpec {
            name: self.name().to_string(),
            n_transactions: p.n,
            n_left: p.n_left,
            n_right: p.n_right,
            density_left: p.d_left,
            density_right: p.d_right,
            structure: self.structure(),
            // Stable per-dataset seed: experiments are exactly reproducible.
            seed: CORPUS_SEED_BASE ^ (self as u64),
        }
    }

    /// The (named where applicable) vocabulary for this dataset.
    pub fn vocabulary(self) -> Vocabulary {
        let p = self.paper();
        match self {
            PaperDataset::House => house_vocabulary(),
            PaperDataset::Mammals => mammals_vocabulary(),
            PaperDataset::Cal500 => cal500_vocabulary(),
            PaperDataset::Elections => elections_vocabulary(),
            PaperDataset::Emotions => emotions_vocabulary(),
            _ => Vocabulary::unnamed(p.n_left, p.n_right),
        }
    }

    /// Generates the dataset at full paper scale (deterministic).
    pub fn generate(self) -> SyntheticDataset {
        self.generate_scaled(usize::MAX)
    }

    /// Generates the dataset with at most `max_transactions` rows.
    pub fn generate_scaled(self, max_transactions: usize) -> SyntheticDataset {
        let spec = self.spec().scaled_to(max_transactions);
        generate_with_vocab(&spec, self.vocabulary())
            // lint: allow(panic_hygiene) — spec() builds from hard-coded paper parameters that always validate
            .expect("corpus specs are valid by construction")
    }

    /// The minsup to use for a run over `n` transactions — the paper's
    /// Table 2 value, scaled proportionally when the dataset is subsampled.
    pub fn minsup_for(self, n: usize) -> usize {
        let p = self.paper();
        if p.minsup <= 1 {
            return 1;
        }
        let scaled = (p.minsup as f64 * n as f64 / p.n as f64).round() as usize;
        scaled.max(1)
    }
}

/// Seed base for the corpus (arbitrary constant; never change it, or every
/// recorded experiment shifts).
const CORPUS_SEED_BASE: u64 = 0x2f1e_77aa_9b3c_5d01;

/// The 16 vote topics of the 1984 congressional voting records data.
const HOUSE_VOTES: [&str; 16] = [
    "handicapped-infants",
    "water-project-cost-sharing",
    "budget-resolution",
    "physician-fee-freeze",
    "el-salvador-aid",
    "religious-groups-in-schools",
    "anti-satellite-test-ban",
    "aid-to-nicaraguan-contras",
    "mx-missile",
    "immigration",
    "synfuels-corporation-cutback",
    "education-spending",
    "superfund-right-to-sue",
    "crime",
    "duty-free-exports",
    "export-administration-south-africa",
];

/// House: left = party + first 8 votes (26 items), right = last 8 votes (24).
pub fn house_vocabulary() -> Vocabulary {
    let mut left: Vec<String> = vec!["party=democrat".into(), "party=republican".into()];
    for vote in &HOUSE_VOTES[..8] {
        for disp in ["y", "n", "?"] {
            left.push(format!("{vote}={disp}"));
        }
    }
    let mut right = Vec::new();
    for vote in &HOUSE_VOTES[8..] {
        for disp in ["y", "n", "?"] {
            right.push(format!("{vote}={disp}"));
        }
    }
    Vocabulary::new(left, right)
}

const MAMMAL_SPECIES: [&str; 68] = [
    "European_Mole",
    "Red_Fox",
    "Red_Squirrel",
    "Eurasian_Lynx",
    "Brown_Bear",
    "Grey_Wolf",
    "Wild_Boar",
    "Red_Deer",
    "Roe_Deer",
    "Moose",
    "European_Badger",
    "Pine_Marten",
    "Beech_Marten",
    "Least_Weasel",
    "Stoat",
    "European_Polecat",
    "Eurasian_Otter",
    "Wildcat",
    "Mountain_Hare",
    "European_Rabbit",
    "Alpine_Marmot",
    "Bank_Vole",
    "Field_Vole",
    "Common_Vole",
    "Water_Vole",
    "Muskrat",
    "Brown_Rat",
    "Black_Rat",
    "House_Mouse",
    "Wood_Mouse",
    "Yellow_Necked_Mouse",
    "Striped_Field_Mouse",
    "Common_Shrew",
    "Pygmy_Shrew",
    "Water_Shrew",
    "White_Toothed_Shrew",
    "European_Hedgehog",
    "Common_Pipistrelle",
    "Noctule",
    "Serotine",
    "Daubentons_Bat",
    "Natterers_Bat",
    "Brown_Long_Eared_Bat",
    "Greater_Horseshoe_Bat",
    "Barbastelle",
    "European_Bison",
    "Chamois",
    "Alpine_Ibex",
    "Mouflon",
    "Fallow_Deer",
    "Sika_Deer",
    "Reindeer",
    "Arctic_Fox",
    "Raccoon_Dog",
    "Golden_Jackal",
    "Wolverine",
    "European_Mink",
    "American_Mink",
    "Garden_Dormouse",
    "Edible_Dormouse",
    "Hazel_Dormouse",
    "Common_Hamster",
    "Northern_Birch_Mouse",
    "Lesser_Mole_Rat",
    "Crested_Porcupine",
    "Coypu",
    "Harvest_Mouse",
    "European_Hare",
];

/// Mammals: 95 + 94 species presence indicators (real names first, padded
/// with systematic placeholders to match the paper's dimensions).
pub fn mammals_vocabulary() -> Vocabulary {
    let mut names: Vec<String> = MAMMAL_SPECIES.iter().map(|s| s.to_string()).collect();
    let mut i = 0;
    while names.len() < 95 + 94 {
        names.push(format!("Vole_Species_{i:02}"));
        i += 1;
    }
    let right = names.split_off(95);
    Vocabulary::new(names, right)
}

/// CAL500: left = 36 emotions + 21 usages + 21 song qualities (78);
/// right = 25 genres + 40 instruments + 32 vocal qualities (97).
pub fn cal500_vocabulary() -> Vocabulary {
    const EMOTIONS: [&str; 36] = [
        "happy",
        "sad",
        "angry",
        "tender",
        "exciting",
        "calming",
        "aggressive",
        "mellow",
        "bizarre",
        "cheerful",
        "arousing",
        "boring",
        "carefree",
        "emotional",
        "laid-back",
        "light",
        "loving",
        "optimistic",
        "pessimistic",
        "positive",
        "powerful",
        "weary",
        "touching",
        "tense",
        "soothing",
        "romantic",
        "pleasant",
        "peaceful",
        "passionate",
        "joyful",
        "hopeful",
        "haunting",
        "gentle",
        "energetic",
        "dreamy",
        "cool",
    ];
    const USAGES: [&str; 21] = [
        "driving",
        "studying",
        "sleeping",
        "party",
        "workout",
        "dancing",
        "reading",
        "cleaning",
        "waking-up",
        "relaxing",
        "dinner",
        "romancing",
        "celebrating",
        "commuting",
        "gaming",
        "background",
        "concentration",
        "meditation",
        "running",
        "socializing",
        "traveling",
    ];
    const SONG: [&str; 21] = [
        "catchy",
        "danceable",
        "fast",
        "slow",
        "loud",
        "quiet",
        "heavy",
        "soft",
        "melodic",
        "rhythmic",
        "repetitive",
        "complex",
        "simple",
        "acoustic-feel",
        "electric-feel",
        "high-energy",
        "low-energy",
        "positive-feelings",
        "negative-feelings",
        "memorable",
        "groovy",
    ];
    const GENRES: [&str; 25] = [
        "Rock",
        "R&B",
        "Pop",
        "Jazz",
        "Blues",
        "Country",
        "Folk",
        "Electronica",
        "Hip-Hop",
        "Rap",
        "Metal",
        "Punk",
        "Alternative",
        "Alternative-Rock",
        "Classic-Rock",
        "Soft-Rock",
        "Hard-Rock",
        "Soul",
        "Funk",
        "Gospel",
        "Reggae",
        "World",
        "Classical",
        "Dance",
        "Singer-Songwriter",
    ];
    const INSTRUMENTS: [&str; 40] = [
        "Guitar-Acoustic",
        "Guitar-Electric",
        "Guitar-Distorted",
        "Bass",
        "Drum-Set",
        "Drum-Machine",
        "Piano",
        "Keyboard",
        "Synthesizer",
        "Organ",
        "Violin",
        "Fiddle",
        "Cello",
        "String-Section",
        "Horn-Section",
        "Trumpet",
        "Saxophone",
        "Trombone",
        "Flute",
        "Clarinet",
        "Harmonica",
        "Accordion",
        "Banjo",
        "Mandolin",
        "Ukulele",
        "Harp",
        "Bells",
        "Xylophone",
        "Vibraphone",
        "Tambourine",
        "Congas",
        "Bongos",
        "Shakers",
        "Scratching",
        "Samples",
        "Sequencer",
        "Ambient-Sounds",
        "Hand-Claps",
        "Whistling",
        "Strings-Plucked",
    ];
    const VOCALS: [&str; 32] = [
        "Male-Lead",
        "Female-Lead",
        "Duet",
        "Choir",
        "Backing",
        "Falsetto",
        "Rapping",
        "Spoken",
        "Screaming",
        "Aggressive",
        "Breathy",
        "Gravelly",
        "Smooth",
        "High-Pitched",
        "Low-Pitched",
        "Emotional",
        "Monotone",
        "Vocal-Harmonies",
        "Call-Response",
        "Altered-Effects",
        "Strong",
        "Gentle",
        "Raspy",
        "Nasal",
        "Operatic",
        "Whispering",
        "Chanting",
        "Yodeling",
        "Humming",
        "Scat",
        "Crooning",
        "Powerful",
    ];
    let mut left: Vec<String> = EMOTIONS.iter().map(|e| format!("Emotion:{e}")).collect();
    left.extend(USAGES.iter().map(|u| format!("Usage:{u}")));
    left.extend(SONG.iter().map(|s| format!("Song:{s}")));
    let mut right: Vec<String> = GENRES.iter().map(|g| format!("Genre:{g}")).collect();
    right.extend(INSTRUMENTS.iter().map(|i| format!("Instrument:{i}")));
    right.extend(VOCALS.iter().map(|v| format!("Vocals:{v}")));
    Vocabulary::new(left, right)
}

/// Elections: left = 82 candidate-profile items; right = 867 items derived
/// from 30 multiple-choice questions (answer options + importances).
pub fn elections_vocabulary() -> Vocabulary {
    const PARTIES: [&str; 18] = [
        "Green-League",
        "SDP",
        "National-Coalition",
        "Centre",
        "Finns-Party",
        "Left-Alliance",
        "Swedish-Peoples",
        "Christian-Democrats",
        "Change-2011",
        "Pirate",
        "Communist",
        "Senior-Citizens",
        "Independence",
        "Workers",
        "Freedom",
        "Liberal",
        "Animal-Justice",
        "Independent",
    ];
    const DISTRICTS: [&str; 15] = [
        "Helsinki",
        "Uusimaa",
        "Varsinais-Suomi",
        "Satakunta",
        "Hame",
        "Pirkanmaa",
        "Kymi",
        "South-Savo",
        "North-Savo",
        "North-Karelia",
        "Vaasa",
        "Central-Finland",
        "Oulu",
        "Lapland",
        "Aland",
    ];
    const OCCUPATIONS: [&str; 10] = [
        "entrepreneur",
        "teacher",
        "lawyer",
        "doctor",
        "engineer",
        "farmer",
        "student",
        "pensioner",
        "artist",
        "researcher",
    ];
    const QUESTION_TOPICS: [&str; 30] = [
        "defense",
        "finance",
        "development-aid",
        "nuclear-energy",
        "immigration",
        "nato",
        "eu-policy",
        "taxation",
        "healthcare",
        "education",
        "pensions",
        "unemployment",
        "climate",
        "forestry",
        "agriculture",
        "transport",
        "municipal-reform",
        "language-policy",
        "gay-marriage",
        "alcohol-policy",
        "conscription",
        "wind-power",
        "tuition-fees",
        "labour-market",
        "privatisation",
        "child-benefits",
        "russia-policy",
        "greece-bailout",
        "media-support",
        "hunting",
    ];

    let mut left: Vec<String> = PARTIES.iter().map(|p| format!("party={p}")).collect();
    for a in ["18-25", "26-35", "36-45", "46-55", "56-65", "66+"] {
        left.push(format!("age={a}"));
    }
    for e in [
        "basic",
        "vocational",
        "upper-secondary",
        "bachelor",
        "master",
    ] {
        left.push(format!("education={e}"));
    }
    for g in ["female", "male"] {
        left.push(format!("gender={g}"));
    }
    for v in ["yes", "no"] {
        left.push(format!("incumbent={v}"));
    }
    for l in ["fi", "sv"] {
        left.push(format!("lang={l}"));
    }
    left.extend(DISTRICTS.iter().map(|d| format!("district={d}")));
    for v in ["yes", "no"] {
        left.push(format!("children={v}"));
    }
    left.extend(OCCUPATIONS.iter().map(|o| format!("occupation={o}")));
    for q in [
        "income=q1",
        "income=q2",
        "income=q3",
        "income=q4",
        "income=q5",
    ] {
        left.push(q.to_string());
    }
    for m in [
        "church-member=yes",
        "church-member=no",
        "church-member=other",
    ] {
        left.push(m.to_string());
    }
    for c in ["council-member=yes", "council-member=no"] {
        left.push(c.to_string());
    }
    left.push("uses-social-media=yes".into());
    left.push("has-campaign-site=yes".into());
    for m in ["married=yes", "married=no"] {
        left.push(m.to_string());
    }
    for m in ["military-rank=officer", "military-rank=none"] {
        left.push(m.to_string());
    }
    left.push("speaks-english=yes".into());
    left.push("speaks-russian=yes".into());
    for f in ["first-time-candidate=yes", "first-time-candidate=no"] {
        left.push(f.to_string());
    }
    assert_eq!(left.len(), 82, "Elections left vocabulary drifted");

    // 867 right items: 27 questions x 29 items + 3 questions x 28 items,
    // each question contributing answer options plus 3 importance levels.
    let mut right: Vec<String> = Vec::with_capacity(867);
    for (qi, topic) in QUESTION_TOPICS.iter().enumerate() {
        let n_opts = if qi < 27 { 26 } else { 25 };
        for o in 0..n_opts {
            right.push(format!("Q{:02}-{topic}=opt{o}", qi + 1));
        }
        for imp in ["low", "medium", "high"] {
            right.push(format!("Q{:02}-{topic}:importance={imp}", qi + 1));
        }
    }
    assert_eq!(right.len(), 867, "Elections right vocabulary drifted");
    Vocabulary::new(left, right)
}

/// Emotions: left = 86 audio features x 5 equal-height bins (430);
/// right = 12 emotion labels.
pub fn emotions_vocabulary() -> Vocabulary {
    let left = (0..86).flat_map(|f| (1..=5).map(move |b| format!("audio-f{f:02}:bin{b}")));
    let right = [
        "amazed-surprised",
        "happy-pleased",
        "relaxing-calm",
        "quiet-still",
        "sad-lonely",
        "angry-aggressive",
        "excited-energetic",
        "calm-soothing",
        "depressive-gloomy",
        "euphoric",
        "nostalgic",
        "anxious-tense",
    ]
    .iter()
    .map(|e| format!("Emotion:{e}"));
    Vocabulary::new(left.collect::<Vec<_>>(), right.collect::<Vec<_>>())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items::Side;

    #[test]
    fn all_vocabularies_match_paper_dimensions() {
        for ds in PaperDataset::ALL {
            let p = ds.paper();
            let v = ds.vocabulary();
            assert_eq!(v.n_left(), p.n_left, "{} left", ds.name());
            assert_eq!(v.n_right(), p.n_right, "{} right", ds.name());
        }
    }

    #[test]
    fn lookup_by_name() {
        assert_eq!(PaperDataset::by_name("house"), Some(PaperDataset::House));
        assert_eq!(PaperDataset::by_name("CAL500"), Some(PaperDataset::Cal500));
        assert_eq!(PaperDataset::by_name("nope"), None);
    }

    #[test]
    fn small_and_large_partition_all() {
        let mut names: Vec<&str> = PaperDataset::SMALL
            .iter()
            .chain(PaperDataset::LARGE.iter())
            .map(|d| d.name())
            .collect();
        names.sort_unstable();
        let mut all: Vec<&str> = PaperDataset::ALL.iter().map(|d| d.name()).collect();
        all.sort_unstable();
        assert_eq!(names, all);
    }

    #[test]
    fn house_generation_matches_shape_and_density() {
        let out = PaperDataset::House.generate();
        let d = &out.dataset;
        let p = PaperDataset::House.paper();
        assert_eq!(d.n_transactions(), p.n);
        assert_eq!(d.vocab().n_left(), p.n_left);
        assert!((d.density(Side::Left) - p.d_left).abs() < 0.05);
        assert!((d.density(Side::Right) - p.d_right).abs() < 0.05);
        assert!(!out.concepts.is_empty());
        assert_eq!(d.name(), "House");
    }

    #[test]
    fn scaled_generation_caps_rows_and_minsup() {
        let out = PaperDataset::Adult.generate_scaled(2000);
        assert_eq!(out.dataset.n_transactions(), 2000);
        let ms = PaperDataset::Adult.minsup_for(2000);
        // 4885 * 2000/48842 = 200.0
        assert_eq!(ms, 200);
        assert_eq!(PaperDataset::Wine.minsup_for(178), 1);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = PaperDataset::Wine.generate();
        let b = PaperDataset::Wine.generate();
        for t in 0..a.dataset.n_transactions() {
            assert_eq!(
                a.dataset.transaction_items(t),
                b.dataset.transaction_items(t)
            );
        }
    }

    #[test]
    fn cal500_has_rock_genre() {
        let v = cal500_vocabulary();
        assert!(v.id_of("Genre:Rock").is_some());
        assert_eq!(v.side_of(v.id_of("Genre:Rock").unwrap()), Side::Right);
    }

    #[test]
    fn house_vote_items_on_expected_sides() {
        let v = house_vocabulary();
        assert_eq!(v.side_of(v.id_of("party=democrat").unwrap()), Side::Left);
        assert_eq!(
            v.side_of(v.id_of("physician-fee-freeze=n").unwrap()),
            Side::Left
        );
        assert_eq!(v.side_of(v.id_of("immigration=n").unwrap()), Side::Right);
        assert_eq!(v.side_of(v.id_of("mx-missile=?").unwrap()), Side::Right);
    }
}
