//! End-to-end test of the `tfx` CLI binary, `tfx stream`: graph + query +
//! stream files (or a synthetic trace) in, JSONL match lines out.

use std::process::Command;

fn tfx_bin() -> &'static str {
    env!("CARGO_BIN_EXE_tfx")
}

fn write(dir: &std::path::Path, name: &str, content: &str) -> std::path::PathBuf {
    let p = dir.join(name);
    std::fs::write(&p, content).expect("write test file");
    p
}

#[test]
fn cli_streams_matches_end_to_end() {
    let dir = std::env::temp_dir().join(format!("tfx-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let graph = write(&dir, "g.txt", "v 0 Person\nv 1 Person\nv 2 Company\ne 0 2 worksAt\n");
    let query = write(
        &dir,
        "q.txt",
        "v 0 Person\nv 1 Person\nv 2 Company\ne 0 1 knows\ne 0 2 worksAt\ne 1 2 worksAt\n",
    );
    let stream = write(&dir, "s.txt", "+ 1 2 worksAt\n+ 0 1 knows\n- 0 2 worksAt\n");

    let out = Command::new(tfx_bin())
        .args(["stream", "--graph", graph.to_str().unwrap(), "--query", query.to_str().unwrap()])
        .arg("--file")
        .arg(&stream)
        .output()
        .expect("run tfx stream");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let deltas = |sign: &str| stdout.lines().filter(|l| l.contains(sign)).count();
    assert_eq!(deltas("\"sign\":\"+\""), 1, "stdout: {stdout}");
    assert_eq!(deltas("\"sign\":\"-\""), 1, "stdout: {stdout}");
    assert!(stdout.starts_with("{\"type\":\"init\",\"engine\":0,\"matches\":0}\n"), "{stdout}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("engine 0: 0 initial matches; DCG "), "stderr: {stderr}");
    assert!(stderr.contains(": 1 positive, 1 negative; "), "stderr: {stderr}");
    // How big and how explicit the DCG is, per query vertex; its bytes, the
    // bitsets' reservation, follow.
    let shape =
        "DCG 2 edges (0 explicit, 2 implicit; reached/explicit per query vertex 1/0 0/0 1/0), ";
    assert_eq!(stderr.matches(shape).count(), 2, "at registration and at the end: {stderr}");
    assert_eq!(stderr.matches(" bytes\n").count(), 1, "the registration line: {stderr}");
    // The closing line adds the graph's shape: one run per direction, each
    // of one edge and so kept in its handle.
    let graph = "; graph 3 vertices, 2 edges, 2 label sets; runs 4 inline / 0 flat / 0 directory; ";
    assert!(stderr.lines().last().is_some_and(|l| l.contains(graph)), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Without `--quiet` each engine lists its initial matches, one JSONL
/// `match` line each, before its `init` count line: exactly as many lines
/// as the count, for one query and for every engine of a fleet. Stderr
/// shows each engine's DCG shape at registration and on the closing line.
#[test]
fn cli_lists_exactly_the_initial_matches_it_counts() {
    let dir = std::env::temp_dir().join(format!("tfx-cli8-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    // `A -r-> B` over a graph with two such edges: two initial matches.
    let graph = write(&dir, "g.txt", "v 0 A\nv 1 B\nv 2 B\ne 0 1 r\ne 0 2 r\n");
    let query = write(&dir, "q.txt", "v 0 A\nv 1 B\ne 0 1 r\n");
    let (graph, query) = (graph.to_str().unwrap(), query.to_str().unwrap());
    let out = Command::new(tfx_bin())
        .args(["stream", "--query", query, "--graph", graph, "--file", "/dev/null"])
        .output()
        .expect("run tfx stream");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let head: Vec<&str> = stdout.lines().take(3).collect();
    assert_eq!(
        head,
        [
            "{\"type\":\"match\",\"engine\":0,\"embedding\":[0,1]}",
            "{\"type\":\"match\",\"engine\":0,\"embedding\":[0,2]}",
            "{\"type\":\"init\",\"engine\":0,\"matches\":2}",
        ],
        "{stdout}"
    );

    let netflow = testdata("netflow_query.txt");
    let synthetic = ["stream", "--synthetic", "netflow", "--window", "count:1000"];
    for queries in [1, 2] {
        let out = Command::new(tfx_bin())
            .args(synthetic)
            .args((0..queries).flat_map(|_| ["--query", netflow.as_str()]))
            .output()
            .expect("run tfx stream");
        let (stdout, stderr) =
            (String::from_utf8_lossy(&out.stdout), String::from_utf8_lossy(&out.stderr));
        assert!(out.status.success(), "stderr: {stderr}");
        let closing = stderr.lines().last().unwrap_or_default();
        assert!(closing.starts_with("processed 4000 events"), "{stderr}");
        for engine in 0..queries {
            let listed = stdout
                .lines()
                .filter(|l| l.starts_with(&format!("{{\"type\":\"match\",\"engine\":{engine},")))
                .count();
            let init = format!("{{\"type\":\"init\",\"engine\":{engine},\"matches\":{listed}}}");
            assert!(listed > 0 && stdout.lines().any(|l| l == init), "{queries} queries: {init}");
            let registered = format!("engine {engine}: {listed} initial matches; DCG ");
            assert!(stderr.contains(&registered), "{queries} queries: {stderr}");
            assert!(closing.contains(&format!("; engine {engine} DCG ")), "{closing}");
        }
        // `--quiet` prints the `init` counts and a fleet's `fleet_stats`:
        // no `match`, `delta`, `batch` or `summary` line.
        let quiet = Command::new(tfx_bin())
            .args(synthetic)
            .args((0..queries).flat_map(|_| ["--query", netflow.as_str()]))
            .arg("--quiet")
            .output()
            .expect("run tfx stream --quiet");
        let quiet = String::from_utf8_lossy(&quiet.stdout);
        let types: Vec<&str> =
            quiet.lines().map(|l| l.split('"').nth(3).unwrap_or_default()).collect();
        let mut expected = vec!["init"; queries];
        expected.extend((queries > 1).then_some("fleet_stats"));
        assert_eq!(types, expected, "{quiet}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `tfx stream` is the one front end: the positional `tfx <graph> <query>`
/// of the removed run mode, a bare `tfx` and an unknown first flag are
/// usage errors that name it.
#[test]
fn cli_without_stream_is_a_usage_error() {
    let (graph, query) = (testdata("demo_graph.txt"), testdata("demo_query.txt"));
    for args in [&[graph.as_str(), query.as_str()][..], &[], &["--bogus"]] {
        let out = Command::new(tfx_bin()).args(args).output().expect("run tfx");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: tfx stream --query"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}

#[test]
fn cli_rejects_unknown_flags_and_bad_streams() {
    // `tfx stream` took `--fleet <threads>` while fleets had a worker pool.
    let out = Command::new(tfx_bin())
        .args(["stream", "--query", &testdata("netflow_query.txt"), "--synthetic", "netflow"])
        .args(["--fleet", "2"])
        .output()
        .expect("run tfx stream");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown stream flag `--fleet`"));

    let dir = std::env::temp_dir().join(format!("tfx-cli2-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let graph = write(&dir, "g.txt", "v 0 A\nv 1 B\ne 0 1 r\n");
    let query = write(&dir, "q.txt", "v 0 A\nv 1 B\ne 0 1 r\n");
    let stream = write(&dir, "s.txt", "+ 0 oops r\n");
    let out = Command::new(tfx_bin())
        .args(["stream", "--graph", graph.to_str().unwrap(), "--query", query.to_str().unwrap()])
        .arg("--file")
        .arg(&stream)
        .output()
        .expect("run tfx stream");
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("vertex ids are integers"));
    std::fs::remove_dir_all(&dir).ok();
}

/// A query past the engine's 64-vertex limit is a user error like an empty
/// or disconnected one: `error:` and exit 1, not a panic, alone or as a
/// fleet's second query.
#[test]
fn cli_rejects_a_query_over_64_vertices() {
    let dir = std::env::temp_dir().join(format!("tfx-cli5-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let graph = write(&dir, "g.txt", "v 0 A\nv 1 A\ne 0 1 r\n");
    let mut path65: String = (0..65).map(|i| format!("v {i} A\n")).collect();
    path65.extend((0..64).map(|i| format!("e {i} {} r\n", i + 1)));
    let query = write(&dir, "q65.txt", &path65);
    let (graph, query) = (graph.to_str().unwrap(), query.to_str().unwrap());
    let demo = testdata("demo_query.txt");
    let stream = ["stream", "--query", query, "--graph", graph, "--file", "/dev/null"];
    let fleet =
        ["stream", "--query", &demo, "--query", query, "--graph", graph, "--file", "/dev/null"];
    for args in [&stream[..], &fleet] {
        let out = Command::new(tfx_bin()).args(args).output().expect("run tfx");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains("error:") && stderr.contains("64 vertices"), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A query file that repeats an edge line is a parse error naming the second
/// declaration (`QueryGraph::add_edge` asserts on it), over a file source
/// and over a synthetic one.
#[test]
fn cli_rejects_a_repeated_query_edge() {
    let dir = std::env::temp_dir().join(format!("tfx-cli6-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let query = write(&dir, "qdup.txt", "v 0 Person\nv 1 Person\ne 0 1 knows\ne 0 1 knows\n");
    let (graph, query) = (testdata("demo_graph.txt"), query.to_str().unwrap().to_owned());
    let stream = ["stream", "--query", &query, "--graph", &graph, "--file", "/dev/null"];
    let synthetic = ["stream", "--query", &query, "--synthetic", "lsbench"];
    for args in [&stream[..], &synthetic] {
        let out = Command::new(tfx_bin()).args(args).output().expect("run tfx");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        let want = "line 4: edge (0, 1, knows) declared twice";
        assert!(stderr.contains("error:") && stderr.contains(want), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// One stream line naming a vertex id far past every known one made the
/// graph fill every slot below it (`+ 0 300000000 knows`: a 3 GB allocation
/// and SIGABRT). The text source refuses the line where it has a line
/// number: `error:` and exit 1 in strict mode, a warning and a skipped line
/// under `--lenient`, for `+` and `v` lines, read from a file or stdin.
#[test]
fn cli_refuses_a_vertex_id_far_past_the_known_ones() {
    let dir = std::env::temp_dir().join(format!("tfx-cli7-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let (graph, query) = (testdata("demo_graph.txt"), testdata("demo_query.txt"));
    let want = "line 2: vertex id 300000000 is more than 1048576 past the highest known id (2)";
    for (name, line) in [("edge.txt", "+ 0 300000000 knows"), ("vertex.txt", "v 300000000 Person")]
    {
        let ops = write(&dir, name, &format!("+ 0 1 knows\n{line}\n+ 1 2 worksAt\n"));
        let ops = ops.to_str().unwrap();
        let stream = ["stream", "--query", &query, "--graph", &graph, "--file", ops];
        let stdin = ["stream", "--query", &query, "--graph", &graph, "--file", "-"];
        for args in [&stream, &stdin] {
            let input = std::fs::File::open(ops).expect("the stream file");
            let out = Command::new(tfx_bin()).args(args).stdin(input).output().expect("run tfx");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
            assert!(stderr.contains(&format!("error: {want}")), "{args:?}: {stderr}");
            assert!(!stderr.contains("panicked") && !stderr.contains("allocation"), "{stderr}");
        }
        let lenient = [&stream[..], &["--lenient"]].concat();
        let out = Command::new(tfx_bin()).args(&lenient).output().expect("run tfx stream");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{line}: {stderr}");
        assert!(stderr.contains(&format!("warning: {want}")), "{line}: {stderr}");
        assert!(stderr.contains("processed 2 events"), "{line}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

fn testdata(name: &str) -> String {
    format!("{}/testdata/{name}", env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn cli_stream_subcommand_windowed_file_run() {
    let out = Command::new(tfx_bin())
        .args([
            "stream",
            "--query",
            &testdata("demo_query.txt"),
            "--graph",
            &testdata("demo_graph.txt"),
            "--file",
            &testdata("demo_stream.txt"),
            "--window",
            "count:3",
        ])
        .output()
        .expect("run tfx stream");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let deltas: Vec<&str> = stdout.lines().filter(|l| l.contains("\"type\":\"delta\"")).collect();
    assert_eq!(deltas.len(), 4, "stdout: {stdout}");
    assert_eq!(deltas.iter().filter(|l| l.contains("\"sign\":\"+\"")).count(), 2);
    let summary =
        stdout.lines().find(|l| l.contains("\"type\":\"summary\"")).expect("summary line");
    assert!(
        summary.contains("\"events\":6") && summary.contains("\"expiry_deletes\":1"),
        "{summary}"
    );
    // The closing line names the graph's shape before the window's: three
    // live edges, v0's two out-edges in one flat run and every other
    // direction that holds an edge inline, over the sets {Person} and
    // {Company}.
    let stderr = String::from_utf8_lossy(&out.stderr);
    let closing = stderr.lines().last().unwrap_or_default();
    let graph = "; graph 4 vertices, 3 edges, 2 label sets; runs 4 inline / 1 flat / 0 directory; ";
    assert!(closing.contains(graph) && closing.ends_with(" bytes; window live 3"), "{stderr}");
}

#[test]
fn cli_stream_subcommand_synthetic_fleet() {
    let run = || {
        let out = Command::new(tfx_bin())
            .args([
                "stream",
                "--query",
                &testdata("netflow_query.txt"),
                "--query",
                &testdata("netflow_query.txt"),
                "--synthetic",
                "netflow",
                "--window",
                "count:1000",
                "--quiet",
            ])
            .output()
            .expect("run tfx stream");
        assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        (stdout, stderr)
    };
    let (stdout, stderr) = run();
    // Two engines over the same query: two init lines, identical counts.
    assert_eq!(stdout.lines().filter(|l| l.contains("\"type\":\"init\"")).count(), 2);
    // The fleet stats line carries the routing counters.
    let fs = stdout
        .lines()
        .find(|l| l.contains("\"type\":\"fleet_stats\""))
        .expect("fleet_stats JSONL line");
    for key in ["ops_routed", "ops_skipped"] {
        assert!(fs.contains(key), "fleet_stats line missing {key}: {fs}");
    }
    assert!(stderr.contains("processed 4000 events"), "stderr: {stderr}");
    // Deterministic: the generator is seeded, so a second run reports the
    // same delta totals (strip the timing from the summary line first).
    let counts = |s: &str| {
        s.lines().find(|l| l.starts_with("processed")).map(|l| {
            l.split(" in ").next().unwrap().to_string() + l.split(':').next_back().unwrap()
        })
    };
    let (_, stderr2) = run();
    assert_eq!(counts(&stderr), counts(&stderr2));
}

#[test]
fn cli_stream_subcommand_lenient_recovers_strict_fails() {
    let dir = std::env::temp_dir().join(format!("tfx-cli4-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let stream = write(&dir, "s.txt", "+ 1 2 worksAt\n+ 0 oops knows\n+ 0 1 knows\n");
    let base = [
        "stream",
        "--query",
        &testdata("demo_query.txt"),
        "--graph",
        &testdata("demo_graph.txt"),
        "--file",
    ];
    let strict = Command::new(tfx_bin()).args(base).arg(&stream).output().expect("run tfx stream");
    assert_eq!(strict.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&strict.stderr).contains("line 2"));

    let lenient = Command::new(tfx_bin())
        .args(base)
        .arg(&stream)
        .arg("--lenient")
        .output()
        .expect("run tfx stream");
    assert!(lenient.status.success(), "stderr: {}", String::from_utf8_lossy(&lenient.stderr));
    let stderr = String::from_utf8_lossy(&lenient.stderr);
    assert!(stderr.contains("warning") && stderr.contains("line 2"), "stderr: {stderr}");
    assert!(stderr.contains("processed 2 events"), "stderr: {stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cli_isomorphism_flag_changes_semantics() {
    let dir = std::env::temp_dir().join(format!("tfx-cli3-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    // Query B <- A -> B over one data A->B: 1 homomorphism, 0 isomorphisms.
    let graph = write(&dir, "g.txt", "v 0 A\nv 1 B\n");
    let query = write(&dir, "q.txt", "v 0 A\nv 1 B\nv 2 B\ne 0 1 r\ne 0 2 r\n");
    let stream = write(&dir, "s.txt", "+ 0 1 r\n");
    let run = |extra: &[&str]| {
        let out = Command::new(tfx_bin())
            .args([
                "stream",
                "--graph",
                graph.to_str().unwrap(),
                "--query",
                query.to_str().unwrap(),
            ])
            .arg("--file")
            .arg(&stream)
            .args(extra)
            .output()
            .expect("run tfx stream");
        assert!(out.status.success(), "{extra:?}: {}", String::from_utf8_lossy(&out.stderr));
        String::from_utf8_lossy(&out.stderr).into_owned()
    };
    let hom = run(&[]);
    assert!(hom.contains(": 1 positive, 0 negative; "), "{hom}");
    let iso = run(&["--iso"]);
    assert!(iso.contains(": 0 positive, 0 negative; "), "{iso}");
    std::fs::remove_dir_all(&dir).ok();
}

/// A writer that cannot take the output is an error, not a silent success
/// (`tfx stream` once dropped every line and exited 0) and not a panic (a
/// `println!` dies on it): `error: writing output`, exit 1, whether the
/// initial matches, the deltas or a fleet's lines fill it.
#[cfg(target_os = "linux")]
#[test]
fn cli_reports_a_full_output_device() {
    let (graph, query) = (testdata("demo_graph.txt"), testdata("demo_query.txt"));
    let (disjoint, ops) = (testdata("demo_query_disjoint.txt"), testdata("demo_stream.txt"));
    let netflow = testdata("netflow_query.txt");
    let stream = ["stream", "--query", &query, "--graph", &graph, "--file", &ops];
    let windowed = [&stream[..], &["--window", "count:3"]].concat();
    let fleet = [&stream[..], &["--query", &disjoint]].concat();
    // 7 298 initial matches, more than the output buffer holds.
    let synthetic = ["stream", "--query", &netflow, "--synthetic", "netflow"];
    for args in [&synthetic[..], &windowed, &fleet] {
        let full = std::fs::OpenOptions::new().write(true).open("/dev/full").expect("/dev/full");
        let out = Command::new(tfx_bin()).args(args).stdout(full).output().expect("run tfx");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains("error: writing output:"), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}
