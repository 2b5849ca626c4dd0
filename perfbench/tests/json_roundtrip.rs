//! The hand-written JSON emitter round-trips through its parser.

use qolsr_perfbench::json::Value;

#[test]
fn nested_values_round_trip() {
    let v = Value::obj([
        ("correct", Value::from(true)),
        ("attempted", Value::from(1200u64)),
        ("none", Value::Null),
        ("neg", Value::Int(-42)),
        (
            "metrics",
            Value::obj([(
                "op_ms_mean",
                Value::obj([
                    ("value", Value::from(1.2034567890123457)),
                    ("unit", Value::from("ms")),
                ]),
            )]),
        ),
        (
            "list",
            Value::Arr(vec![
                Value::from(0.1),
                Value::from(1e-9),
                Value::from(6.02e23),
                Value::from(-0.0),
                Value::Arr(vec![]),
                Value::obj(Vec::<(&str, Value)>::new()),
            ]),
        ),
        (
            "text",
            Value::from("quote \" slash \\ tab \t newline \n bell \u{7} é ✓"),
        ),
    ]);
    let line = v.to_json();
    assert!(!line.contains('\n'), "one line: {line}");
    assert_eq!(Value::parse(&line), Ok(v));
}

#[test]
fn floats_keep_every_digit() {
    for x in [
        0.1 + 0.2,
        std::f64::consts::PI,
        123456.78901234567,
        5e-324,
        f64::MAX,
    ] {
        let line = Value::from(x).to_json();
        assert_eq!(Value::parse(&line), Ok(Value::Num(x)), "{line}");
    }
}

#[test]
fn whole_floats_stay_floats() {
    assert_eq!(Value::from(3.0).to_json(), "3.0");
    assert_eq!(Value::parse("3.0"), Ok(Value::Num(3.0)));
    assert_eq!(Value::parse("3"), Ok(Value::Int(3)));
}

#[test]
fn malformed_documents_are_rejected() {
    for bad in [
        "",
        "{",
        "[1,]",
        "{\"a\" 1}",
        "tru",
        "\"open",
        "1 2",
        "{\"a\": 1,}",
    ] {
        assert!(Value::parse(bad).is_err(), "{bad:?} parsed");
    }
}

#[test]
fn parses_whitespace_and_escapes() {
    let v = Value::parse(" { \"a\" : [ 1 , 2.5 , \"\\u00e9\\n\" ] } ").unwrap();
    assert_eq!(
        v,
        Value::obj([(
            "a",
            Value::Arr(vec![Value::Int(1), Value::Num(2.5), Value::from("é\n")])
        )])
    );
}
