//! Writer/parser round-trip guarantees for the JSON value model: every
//! tree survives `parse(write(tree))` exactly — floats bit-for-bit,
//! nesting, escapes, unicode — and canonical texts survive
//! `write(parse(text))`.

use equinox_config::json::{parse, Json, MAX_DEPTH};

fn roundtrip(v: &Json) {
    for text in [v.to_compact(), v.pretty()] {
        let back = parse(&text).unwrap_or_else(|e| panic!("reparse of {text:?}: {e}"));
        assert_eq!(&back, v, "round-trip through {text:?}");
    }
}

#[test]
fn scalars_round_trip() {
    for v in [
        Json::Null,
        Json::Bool(true),
        Json::Bool(false),
        Json::Num(0.0),
        Json::Num(-1.0),
        Json::Num(42.0),
        Json::Str(String::new()),
        Json::Str("plain".into()),
    ] {
        roundtrip(&v);
    }
}

#[test]
fn floats_round_trip_bit_for_bit() {
    for x in [
        0.1,
        1.0 / 3.0,
        f64::MIN_POSITIVE,
        f64::MAX,
        -2.2250738585072014e-308,
        1e300,
        123_456_789.123_456_79,
        (2u64.pow(53) - 1) as f64,
        -0.0,
    ] {
        let text = Json::Num(x).to_compact();
        let back = parse(&text).unwrap().as_f64().unwrap();
        assert_eq!(
            back.to_bits(),
            x.to_bits(),
            "{x:e} -> {text} -> {back:e} lost bits"
        );
    }
}

#[test]
fn escapes_round_trip() {
    let nasty = "quote:\" backslash:\\ newline:\n tab:\t cr:\r bell:\u{7} del:\u{1f} unicode:λ→😀";
    roundtrip(&Json::Str(nasty.into()));
    // And the escape syntax itself parses to the right characters.
    assert_eq!(
        parse(r#""A\t\"\\é😀""#).unwrap(),
        Json::Str("A\t\"\\é😀".into())
    );
}

#[test]
fn deep_nesting_round_trips() {
    let v = Json::obj()
        .with("meta", Json::obj().with("name", "equinox").with("version", 1u64))
        .with(
            "rows",
            vec![
                Json::Arr(vec![Json::Num(1.5), Json::Null, Json::Bool(false)]),
                Json::obj().with("empty_arr", Vec::<Json>::new()).with("empty_obj", Json::obj()),
            ],
        )
        .with("curve", vec![Json::Num(0.1), Json::Num(0.30000000000000004)]);
    roundtrip(&v);
}

#[test]
fn nesting_parses_to_the_depth_limit_and_is_named_past_it() {
    let arrays = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
    let objects = |depth: usize| format!("{}1{}", "{\"a\": ".repeat(depth), "}".repeat(depth));
    for text in [arrays(MAX_DEPTH), objects(MAX_DEPTH)] {
        let v = parse(&text).unwrap_or_else(|e| panic!("{MAX_DEPTH} levels must parse: {e}"));
        assert_eq!(v.to_compact(), text);
        roundtrip(&v);
    }
    // Past the limit, and far past it (a recursive descent without the
    // bound overflows its stack on this one), the error names the limit
    // where the first level too many opens.
    for (text, offset) in [
        (arrays(MAX_DEPTH + 1), MAX_DEPTH),
        (objects(MAX_DEPTH + 1), MAX_DEPTH * 6),
        ("[".repeat(200_000), MAX_DEPTH),
    ] {
        let e = parse(&text).expect_err("too deep");
        assert_eq!(e.message, format!("nesting deeper than {MAX_DEPTH} levels"));
        assert_eq!((e.offset, e.line), (offset, 1));
    }
}

#[test]
fn object_order_is_preserved() {
    let text = r#"{"z": 1, "a": 2, "m": 3}"#;
    let v = parse(text).unwrap();
    assert_eq!(v.to_compact(), text, "objects must stay insertion-ordered");
}

#[test]
fn parser_rejects_malformed_documents() {
    for bad in [
        "",
        "{",
        "[1 2]",
        "{\"a\" 1}",
        "{\"a\": 1,}",
        "tru",
        "\"unterminated",
        "\"bad \\x escape\"",
        "01e",
        "nan",
        "{\"a\": 1} {\"b\": 2}",
    ] {
        assert!(parse(bad).is_err(), "{bad:?} must not parse");
    }
}
