//! Domain vocabularies for the synthetic benchmark.
//!
//! Each pool is a static word list; generators draw from them with a
//! seeded RNG. Pools are intentionally *moderate* in size so that distinct
//! entities still share common words (style names, categories, cities) —
//! the property that makes non-matching EM pairs hard and that the paper's
//! perturbation analysis relies on.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;

/// Brand-like proper names (shared across product domains).
pub const BRANDS: &[&str] = &[
    "sonix", "nikor", "canox", "lumax", "pentar", "olympa", "fujira", "kodar", "samsun", "philip",
    "toshiva", "panasor", "sharpe", "vizior", "hitach", "lenova", "dellux", "asuso", "acerin",
    "msight", "razeri", "logitek", "corsair", "kingsto", "seagat", "westdig", "sandis", "belkin",
    "netgea", "linksy", "garmix", "tomtom", "fitbix", "polaro", "leicas", "zeisso",
];

/// Generic product nouns.
pub const PRODUCT_NOUNS: &[&str] = &[
    "camera",
    "lens",
    "case",
    "tripod",
    "battery",
    "charger",
    "adapter",
    "cable",
    "monitor",
    "keyboard",
    "mouse",
    "speaker",
    "headphone",
    "printer",
    "scanner",
    "router",
    "drive",
    "memory",
    "card",
    "flash",
    "player",
    "phone",
    "tablet",
    "laptop",
    "desktop",
    "projector",
    "remote",
    "dock",
    "stand",
    "mount",
    "bag",
    "strap",
    "filter",
    "hood",
    "kit",
];

/// Product adjectives / qualifiers.
pub const PRODUCT_ADJECTIVES: &[&str] = &[
    "digital",
    "wireless",
    "portable",
    "compact",
    "professional",
    "premium",
    "ultra",
    "mini",
    "slim",
    "rugged",
    "waterproof",
    "bluetooth",
    "optical",
    "zoom",
    "hd",
    "4k",
    "stereo",
    "gaming",
    "ergonomic",
    "rechargeable",
    "leather",
    "black",
    "silver",
    "white",
    "red",
    "blue",
    "deluxe",
];

/// Beer name words.
pub const BEER_WORDS: &[&str] = &[
    "hoppy", "golden", "amber", "dark", "imperial", "double", "session", "wild", "sour", "barrel",
    "aged", "dry", "hazy", "crisp", "old", "river", "mountain", "valley", "harbor", "ghost",
    "iron", "copper", "raven", "fox", "bear", "eagle", "wolf", "moon", "sun", "winter", "summer",
    "autumn", "midnight", "morning", "rustic", "velvet",
];

/// Beer styles (deliberately few: heavy overlap between entities).
pub const BEER_STYLES: &[&str] = &[
    "ipa",
    "stout",
    "porter",
    "lager",
    "pilsner",
    "ale",
    "saison",
    "witbier",
    "dubbel",
    "tripel",
    "barleywine",
    "kolsch",
    "gose",
    "bock",
];

/// Brewery name words.
pub const BREWERY_WORDS: &[&str] = &[
    "brewing",
    "brewery",
    "brewhouse",
    "beerworks",
    "craft",
    "united",
    "county",
    "city",
    "creek",
    "bridge",
    "station",
    "mill",
    "forge",
    "anchor",
    "crown",
    "royal",
    "national",
    "pacific",
    "atlantic",
];

/// First names for artists / authors.
pub const FIRST_NAMES: &[&str] = &[
    "james", "maria", "david", "elena", "marco", "sofia", "lucas", "emma", "noah", "olivia",
    "liam", "ava", "ethan", "mia", "aiden", "zoe", "carlos", "nina", "pavel", "anya", "hiro",
    "yuki", "omar", "leila", "pierre", "claire", "diego", "lucia", "ivan", "petra",
];

/// Last names for artists / authors.
pub const LAST_NAMES: &[&str] = &[
    "smith", "garcia", "rossi", "mueller", "tanaka", "kim", "patel", "ivanov", "santos", "dubois",
    "larsen", "novak", "kowalski", "haddad", "okafor", "nguyen", "silva", "costa", "weber",
    "moreau", "jansen", "bergman", "ricci", "fontana", "vargas", "romero", "keller", "brandt",
];

/// Words for song / album titles.
pub const MUSIC_WORDS: &[&str] = &[
    "love",
    "night",
    "dream",
    "fire",
    "rain",
    "heart",
    "shadow",
    "light",
    "dance",
    "summer",
    "broken",
    "golden",
    "electric",
    "silent",
    "wild",
    "forever",
    "yesterday",
    "tomorrow",
    "paradise",
    "horizon",
    "echo",
    "gravity",
    "neon",
    "velvet",
    "crystal",
    "thunder",
    "whisper",
    "mirror",
];

/// Music genres (small pool: heavy overlap).
pub const GENRES: &[&str] = &[
    "pop",
    "rock",
    "jazz",
    "blues",
    "country",
    "electronic",
    "hip-hop",
    "classical",
    "folk",
    "indie",
    "metal",
    "soul",
];

/// Restaurant name words.
pub const RESTAURANT_WORDS: &[&str] = &[
    "golden",
    "dragon",
    "olive",
    "garden",
    "blue",
    "plate",
    "corner",
    "bistro",
    "grill",
    "kitchen",
    "table",
    "house",
    "villa",
    "palace",
    "tavern",
    "cantina",
    "trattoria",
    "brasserie",
    "diner",
    "cafe",
    "harvest",
    "ember",
    "saffron",
    "basil",
    "pepper",
    "honey",
    "maple",
];

/// Cuisine types.
pub const CUISINES: &[&str] = &[
    "italian",
    "french",
    "chinese",
    "japanese",
    "mexican",
    "thai",
    "indian",
    "american",
    "mediterranean",
    "korean",
    "spanish",
    "greek",
];

/// Cities.
pub const CITIES: &[&str] = &[
    "new york",
    "los angeles",
    "chicago",
    "houston",
    "phoenix",
    "seattle",
    "denver",
    "boston",
    "atlanta",
    "miami",
    "portland",
    "austin",
];

/// Street name words.
pub const STREETS: &[&str] = &[
    "main st",
    "oak ave",
    "elm st",
    "park blvd",
    "maple dr",
    "cedar ln",
    "1st ave",
    "2nd st",
    "5th ave",
    "broadway",
    "market st",
    "sunset blvd",
];

/// Research-paper title words.
pub const PAPER_WORDS: &[&str] = &[
    "efficient",
    "scalable",
    "distributed",
    "parallel",
    "adaptive",
    "incremental",
    "approximate",
    "optimal",
    "robust",
    "secure",
    "query",
    "processing",
    "optimization",
    "indexing",
    "mining",
    "learning",
    "clustering",
    "classification",
    "matching",
    "integration",
    "streams",
    "graphs",
    "databases",
    "transactions",
    "storage",
    "retrieval",
    "networks",
    "systems",
    "algorithms",
    "models",
    "semantics",
    "schema",
    "entity",
    "knowledge",
    "temporal",
    "spatial",
    "probabilistic",
];

/// Publication venues (small pool).
pub const VENUES: &[&str] = &[
    "sigmod", "vldb", "icde", "edbt", "kdd", "icml", "cikm", "www", "pods", "sigir",
];

/// Product categories for the Walmart-Amazon style domain.
pub const CATEGORIES: &[&str] = &[
    "electronics",
    "computers",
    "accessories",
    "photography",
    "audio",
    "office",
    "storage",
    "networking",
    "gaming",
    "wearables",
];

/// Long-description filler words for the textual domain.
pub const DESCRIPTION_WORDS: &[&str] = &[
    "features",
    "includes",
    "designed",
    "perfect",
    "quality",
    "durable",
    "lightweight",
    "easy",
    "install",
    "compatible",
    "warranty",
    "package",
    "high",
    "performance",
    "advanced",
    "technology",
    "resolution",
    "capacity",
    "powerful",
    "reliable",
    "adjustable",
    "universal",
    "provides",
    "delivers",
    "supports",
    "built",
    "engineered",
    "superior",
];

/// Draws `k` distinct words from a pool (fewer if the pool is smaller).
pub fn draw_distinct<'a>(rng: &mut StdRng, pool: &[&'a str], k: usize) -> Vec<&'a str> {
    let k = k.min(pool.len());
    pool.choose_multiple(rng, k).copied().collect()
}

/// Draws one word from a pool.
pub fn draw_one<'a>(rng: &mut StdRng, pool: &[&'a str]) -> &'a str {
    pool.choose(rng).expect("non-empty pool")
}

/// A random price string like `149.99` in `[lo, hi)`.
pub fn draw_price(rng: &mut StdRng, lo: f64, hi: f64) -> String {
    let v: f64 = rng.gen_range(lo..hi);
    format!("{:.2}", v)
}

/// A random 4-digit year in `[lo, hi]`.
pub fn draw_year(rng: &mut StdRng, lo: u32, hi: u32) -> String {
    rng.gen_range(lo..=hi).to_string()
}

/// An alphanumeric model code like `dslra200w`.
pub fn draw_code(rng: &mut StdRng) -> String {
    let letters = b"abcdefghijklmnopqrstuvwxyz";
    let mut s = String::new();
    for _ in 0..rng.gen_range(2..=4) {
        s.push(letters[rng.gen_range(0..letters.len())] as char);
    }
    s.push_str(&rng.gen_range(10..9999u32).to_string());
    if rng.gen_bool(0.5) {
        s.push(letters[rng.gen_range(0..letters.len())] as char);
    }
    s
}

/// A US-style phone number.
pub fn draw_phone(rng: &mut StdRng) -> String {
    format!(
        "{:03}-{:03}-{:04}",
        rng.gen_range(200..999),
        rng.gen_range(200..999),
        rng.gen_range(0..9999)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    #[test]
    fn draw_distinct_returns_unique_words() {
        let mut r = rng();
        let words = draw_distinct(&mut r, BEER_WORDS, 10);
        assert_eq!(words.len(), 10);
        let set: std::collections::BTreeSet<_> = words.iter().collect();
        assert_eq!(set.len(), 10);
    }

    #[test]
    fn draw_distinct_caps_at_pool_size() {
        let mut r = rng();
        let words = draw_distinct(&mut r, GENRES, 100);
        assert_eq!(words.len(), GENRES.len());
    }

    #[test]
    fn draw_price_is_in_range_and_formatted() {
        let mut r = rng();
        for _ in 0..50 {
            let p = draw_price(&mut r, 10.0, 100.0);
            let v: f64 = p.parse().unwrap();
            assert!((10.0..100.0).contains(&v));
            assert!(p.contains('.'));
        }
    }

    #[test]
    fn draw_year_is_in_range() {
        let mut r = rng();
        for _ in 0..20 {
            let y: u32 = draw_year(&mut r, 1990, 2020).parse().unwrap();
            assert!((1990..=2020).contains(&y));
        }
    }

    #[test]
    fn draw_code_looks_like_a_model_number() {
        let mut r = rng();
        for _ in 0..20 {
            let c = draw_code(&mut r);
            assert!(c.len() >= 4);
            assert!(c.chars().any(|ch| ch.is_ascii_digit()));
            assert!(c.chars().any(|ch| ch.is_ascii_lowercase()));
            assert!(!c.contains(' '));
        }
    }

    #[test]
    fn draw_phone_has_expected_shape() {
        let mut r = rng();
        let p = draw_phone(&mut r);
        let parts: Vec<&str> = p.split('-').collect();
        assert_eq!(parts.len(), 3);
        assert_eq!(parts[0].len(), 3);
        assert_eq!(parts[2].len(), 4);
    }

    #[test]
    fn draws_are_deterministic_per_seed() {
        let mut a = rng();
        let mut b = rng();
        assert_eq!(draw_code(&mut a), draw_code(&mut b));
        assert_eq!(draw_one(&mut a, BRANDS), draw_one(&mut b, BRANDS));
    }

    #[test]
    fn pools_are_nonempty_and_lowercase() {
        for pool in [
            BRANDS,
            PRODUCT_NOUNS,
            PRODUCT_ADJECTIVES,
            BEER_WORDS,
            BEER_STYLES,
            BREWERY_WORDS,
            FIRST_NAMES,
            LAST_NAMES,
            MUSIC_WORDS,
            GENRES,
            RESTAURANT_WORDS,
            CUISINES,
            CITIES,
            STREETS,
            PAPER_WORDS,
            VENUES,
            CATEGORIES,
            DESCRIPTION_WORDS,
        ] {
            assert!(!pool.is_empty());
            for w in pool {
                assert_eq!(*w, w.to_lowercase(), "{w} not lowercase");
            }
        }
    }
}
