//! End-to-end test of the `tfx` CLI binary: graph + query + stream files
//! in, match lines out.

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
        .args([graph.to_str().unwrap(), query.to_str().unwrap(), "--stream"])
        .arg(&stream)
        .output()
        .expect("run tfx");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let positives = stdout.lines().filter(|l| l.starts_with('+')).count();
    let negatives = stdout.lines().filter(|l| l.starts_with('-')).count();
    assert_eq!(positives, 1, "stdout: {stdout}");
    assert_eq!(negatives, 1, "stdout: {stdout}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("0 initial matches"), "stderr: {stderr}");
    assert!(stderr.contains("1 positive, 1 negative"), "stderr: {stderr}");
    // How big and how explicit the DCG is, per query vertex; its bytes, the
    // bitsets' reservation, follow.
    let shape =
        "DCG 2 edges (0 explicit, 2 implicit; reached/explicit per query vertex 1/0 0/0 1/0)";
    assert_eq!(stderr.matches(shape).count(), 2, "at registration and at the end: {stderr}");
    assert_eq!(stderr.matches(" bytes\n").count(), 2, "{stderr}");
    // The closing line adds the graph's shape: one run per direction, each
    // of one edge and so kept in its handle.
    let graph = "; graph 3 vertices, 2 edges, 2 label sets; runs 4 inline / 0 flat / 0 directory; ";
    assert!(stderr.lines().last().is_some_and(|l| l.contains(graph)), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cli_rejects_unknown_flags_and_bad_streams() {
    let out = Command::new(tfx_bin()).arg("--bogus").output().expect("run tfx");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag"));

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
        .args([graph.to_str().unwrap(), query.to_str().unwrap(), "--stream"])
        .arg(&stream)
        .output()
        .expect("run tfx");
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("vertex ids are integers"));
    std::fs::remove_dir_all(&dir).ok();
}

/// A query past the engine's 64-vertex limit is a user error like an empty
/// or disconnected one: `error:` and exit 1, not a panic, in every mode.
#[test]
fn cli_rejects_a_query_over_64_vertices() {
    let dir = std::env::temp_dir().join(format!("tfx-cli5-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let graph = write(&dir, "g.txt", "v 0 A\nv 1 A\ne 0 1 r\n");
    let mut path65: String = (0..65).map(|i| format!("v {i} A\n")).collect();
    path65.extend((0..64).map(|i| format!("e {i} {} r\n", i + 1)));
    let query = write(&dir, "q65.txt", &path65);
    let (graph, query) = (graph.to_str().unwrap(), query.to_str().unwrap());
    let stream = ["stream", "--query", query, "--graph", graph, "--file", "/dev/null"];
    for args in [&[graph, query][..], &stream] {
        let out = Command::new(tfx_bin()).args(args).output().expect("run tfx");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains("error:") && stderr.contains("64 vertices"), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A query file that repeats an edge line is a parse error naming the second
/// declaration (`QueryGraph::add_edge` asserts on it), in run and stream mode.
#[test]
fn cli_rejects_a_repeated_query_edge() {
    let dir = std::env::temp_dir().join(format!("tfx-cli6-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let query = write(&dir, "qdup.txt", "v 0 Person\nv 1 Person\ne 0 1 knows\ne 0 1 knows\n");
    let (graph, query) = (testdata("demo_graph.txt"), query.to_str().unwrap().to_owned());
    let stream = ["stream", "--query", &query, "--graph", &graph, "--file", "/dev/null"];
    for args in [&[graph.as_str(), query.as_str()][..], &stream] {
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
/// under `--lenient`, for `+` and `v` lines, in run and stream mode.
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
        for args in [&[&graph, &query, "--stream", ops][..], &stream] {
            let out = Command::new(tfx_bin()).args(args).output().expect("run tfx");
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
    let hom = Command::new(tfx_bin())
        .args([graph.to_str().unwrap(), query.to_str().unwrap(), "--stream"])
        .arg(&stream)
        .output()
        .expect("run tfx");
    assert!(String::from_utf8_lossy(&hom.stderr).contains("1 positive"));
    let iso = Command::new(tfx_bin())
        .args([graph.to_str().unwrap(), query.to_str().unwrap(), "--iso", "--stream"])
        .arg(&stream)
        .output()
        .expect("run tfx");
    assert!(String::from_utf8_lossy(&iso.stderr).contains("0 positive"));
    std::fs::remove_dir_all(&dir).ok();
}

/// A writer that cannot take the output is an error, not a silent success
/// (stream mode dropped every line and exited 0) and not a panic (run mode
/// died in `println!`): `error: writing output`, exit 1, in every mode.
#[cfg(target_os = "linux")]
#[test]
fn cli_reports_a_full_output_device() {
    let (graph, query) = (testdata("demo_graph.txt"), testdata("demo_query.txt"));
    let (disjoint, ops) = (testdata("demo_query_disjoint.txt"), testdata("demo_stream.txt"));
    let stream = ["stream", "--query", &query, "--graph", &graph, "--file", &ops];
    let windowed = [&stream[..], &["--window", "count:3"]].concat();
    let fleet = [&stream[..], &["--query", &disjoint]].concat();
    for args in [&[&graph, &query, "--stream", &ops][..], &windowed, &fleet] {
        let full = std::fs::OpenOptions::new().write(true).open("/dev/full").expect("/dev/full");
        let out = Command::new(tfx_bin()).args(args).stdout(full).output().expect("run tfx");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains("error: writing output:"), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}
