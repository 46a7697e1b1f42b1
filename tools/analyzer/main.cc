/**
 * @file
 * CLI driver of archytas-analyzer. Loads every .cc/.hh under the scan
 * directories, plus each source file named directly, runs the checker
 * catalogue, applies inline waivers and the committed baseline, and
 * writes text (stdout) and optionally SARIF reports.
 *
 * Exit codes: 0 clean, 1 unwaived/non-baselined findings, 2 usage or
 * I/O error.
 */

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "checks.hh"
#include "model.hh"
#include "report.hh"

namespace fs = std::filesystem;
using namespace archytas::analyzer;

namespace {

struct Options {
    std::string root = ".";
    std::string sarif_path;
    std::string baseline_path;
    bool write_baseline = false;
    std::string schema_path = "tools/analyzer/telemetry_schema.txt";
    double contract_threshold = 80.0;
    bool list_rules = false;
    bool verbose = false;
    std::vector<std::string> scan_dirs; // relative to root
};

int
usage(const char *argv0)
{
    std::cerr
        << "usage: " << argv0 << " [options] [scan-path...]\n"
        << "  --root DIR                repo root (default .)\n"
        << "  --sarif PATH              write SARIF 2.1.0 report\n"
        << "  --baseline PATH           suppress findings whose\n"
        << "                            fingerprints are listed\n"
        << "  --write-baseline PATH     write current fingerprints\n"
        << "  --schema PATH             telemetry schema, repo-relative\n"
        << "                            (default "
           "tools/analyzer/telemetry_schema.txt)\n"
        << "  --contract-threshold PCT  min contract coverage per\n"
        << "                            module (default 80)\n"
        << "  --list-rules              print the rule catalogue\n"
        << "  --verbose                 chatty progress\n"
        << "scan-paths are directories or single .cc/.hh files,\n"
        << "relative to --root; they default to `src`.\n";
    return 2;
}

bool
parseArgs(int argc, char **argv, Options &opt, std::string &wb_path)
{
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const auto value = [&](std::string &dst) {
            if (i + 1 >= argc)
                return false;
            dst = argv[++i];
            return true;
        };
        if (a == "--root") {
            if (!value(opt.root))
                return false;
        } else if (a == "--sarif") {
            if (!value(opt.sarif_path))
                return false;
        } else if (a == "--baseline") {
            if (!value(opt.baseline_path))
                return false;
        } else if (a == "--write-baseline") {
            opt.write_baseline = true;
            if (!value(wb_path))
                return false;
        } else if (a == "--schema") {
            if (!value(opt.schema_path))
                return false;
        } else if (a == "--contract-threshold") {
            std::string v;
            if (!value(v))
                return false;
            opt.contract_threshold = std::stod(v);
        } else if (a == "--list-rules") {
            opt.list_rules = true;
        } else if (a == "--verbose") {
            opt.verbose = true;
        } else if (!a.empty() && a[0] == '-') {
            std::cerr << "unknown option: " << a << "\n";
            return false;
        } else {
            opt.scan_dirs.push_back(a);
        }
    }
    if (opt.scan_dirs.empty())
        opt.scan_dirs.push_back("src");
    return true;
}

bool
analyzableExtension(const fs::path &p)
{
    const std::string ext = p.extension().string();
    return ext == ".cc" || ext == ".hh" || ext == ".cpp" ||
           ext == ".hpp";
}

/** Repo-relative POSIX path. */
std::string
relPath(const fs::path &p, const fs::path &root)
{
    return fs::relative(p, root).generic_string();
}

std::string
moduleOf(const std::string &rel)
{
    if (rel.rfind("src/", 0) != 0)
        return "";
    const std::size_t second = rel.find('/', 4);
    if (second == std::string::npos)
        return "";
    return rel.substr(4, second - 4);
}

bool
loadFile(const fs::path &abs, const fs::path &root, SourceFile &out)
{
    std::ifstream in(abs, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string text = buf.str();

    out.path = relPath(abs, root);
    out.module = moduleOf(out.path);
    out.is_header = abs.extension() == ".hh" ||
                    abs.extension() == ".hpp";
    out.lex = lex(text);
    out.scopes = buildScopes(out.lex);
    out.raw_lines.clear();
    std::istringstream ls(text);
    std::string line;
    while (std::getline(ls, line)) {
        if (!line.empty() && line.back() == '\r')
            line.pop_back();
        out.raw_lines.push_back(line);
    }
    return true;
}

/** Baseline file: one fingerprint per line, `#` comments. */
std::multiset<std::string>
loadBaseline(const std::string &path, bool &ok)
{
    std::multiset<std::string> out;
    ok = true;
    if (path.empty())
        return out;
    std::ifstream in(path);
    if (!in) {
        ok = false;
        return out;
    }
    std::string line;
    while (std::getline(in, line)) {
        const std::size_t hash = line.find('#');
        if (hash != std::string::npos)
            line = line.substr(0, hash);
        while (!line.empty() &&
               (line.back() == ' ' || line.back() == '\t' ||
                line.back() == '\r'))
            line.pop_back();
        if (!line.empty())
            out.insert(line);
    }
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    std::string wb_path;
    if (!parseArgs(argc, argv, opt, wb_path))
        return usage(argv[0]);

    if (opt.list_rules) {
        for (const RuleMeta &r : ruleCatalogue())
            std::cout << r.id << "  " << r.description << "\n";
        return 0;
    }

    std::error_code ec;
    const fs::path root = fs::canonical(opt.root, ec);
    if (ec) {
        std::cerr << "error: cannot resolve root '" << opt.root
                  << "': " << ec.message() << "\n";
        return 2;
    }

    // Collect files in sorted order so the run itself is deterministic.
    std::vector<fs::path> paths;
    for (const std::string &dir : opt.scan_dirs) {
        const fs::path scan = root / dir;
        // A named file is analyzed as given, fixture or not.
        if (fs::is_regular_file(scan) && analyzableExtension(scan)) {
            paths.push_back(scan);
            continue;
        }
        if (!fs::is_directory(scan)) {
            std::cerr << "error: not a scan dir or C++ source file: "
                      << scan.string() << "\n";
            return 2;
        }
        for (fs::recursive_directory_iterator it(scan), end;
             it != end; ++it) {
            if (!it->is_regular_file())
                continue;
            const std::string rel = relPath(it->path(), root);
            // Analyzer test fixtures are deliberately broken inputs.
            if (rel.find("fixtures/") != std::string::npos)
                continue;
            if (analyzableExtension(it->path()))
                paths.push_back(it->path());
        }
    }
    std::sort(paths.begin(), paths.end());

    AnalysisContext ctx;
    ctx.config.root = root.string();
    ctx.config.schema_path = opt.schema_path;
    ctx.config.contract_threshold = opt.contract_threshold;
    ctx.config.verbose = opt.verbose;
    for (const fs::path &p : paths) {
        SourceFile f;
        if (!loadFile(p, root, f)) {
            std::cerr << "error: cannot read " << p.string() << "\n";
            return 2;
        }
        for (const VarDecl &d : f.scopes.unordered_decls)
            if (!d.name.empty())
                ctx.unordered_names.insert(d.name);
        for (const VarDecl &d : f.scopes.atomic_decls)
            if (!d.name.empty())
                ctx.atomic_names.insert(d.name);
        ctx.files.push_back(std::move(f));
    }
    if (opt.verbose)
        std::cerr << "analyzing " << ctx.files.size() << " files under "
                  << root.string() << "\n";

    std::vector<Finding> findings;
    std::vector<CoverageRow> coverage;

    // Waiver-syntax findings surface even when nothing else fires.
    std::map<std::string, FileWaivers> waivers;
    for (const SourceFile &f : ctx.files)
        waivers[f.path] = parseWaivers(f, findings);

    runAllChecks(ctx, findings, coverage);

    // Apply inline waivers.
    std::vector<Finding> kept;
    for (Finding &f : findings) {
        const auto it = waivers.find(f.file);
        if (it != waivers.end() && f.rule != "waiver-syntax" &&
            it->second.waives(f.rule, f.line))
            continue;
        kept.push_back(std::move(f));
    }
    findings = std::move(kept);
    sortFindings(findings);

    if (opt.write_baseline) {
        std::ofstream out(wb_path);
        if (!out) {
            std::cerr << "error: cannot write baseline " << wb_path
                      << "\n";
            return 2;
        }
        out << "# archytas-analyzer baseline: known findings accepted "
               "as debt.\n"
            << "# One fingerprint per line; regenerate with "
               "--write-baseline.\n";
        for (const Finding &f : findings)
            if (f.severity == Severity::Error)
                out << f.fingerprint << "\n";
        std::cerr << "wrote baseline (" << findings.size()
                  << " findings) to " << wb_path << "\n";
        return 0;
    }

    bool baseline_ok = true;
    std::multiset<std::string> baseline =
        loadBaseline(opt.baseline_path, baseline_ok);
    if (!baseline_ok) {
        std::cerr << "error: cannot read baseline "
                  << opt.baseline_path << "\n";
        return 2;
    }

    std::vector<Finding> fresh;     // gate CI
    std::vector<Finding> baselined; // suppressed, shown in verbose
    for (Finding &f : findings) {
        const auto it = baseline.find(f.fingerprint);
        if (it != baseline.end()) {
            baseline.erase(it); // multiset: one entry per occurrence
            baselined.push_back(std::move(f));
        } else {
            fresh.push_back(std::move(f));
        }
    }
    if (!baseline.empty()) {
        std::cerr << "warning: " << baseline.size()
                  << " stale baseline entr"
                  << (baseline.size() == 1 ? "y" : "ies")
                  << " no longer match" << (baseline.size() == 1 ? "es" : "")
                  << " any finding; regenerate with --write-baseline:\n";
        for (const std::string &fp : baseline)
            std::cerr << "  " << fp << "\n";
    }

    std::cout << textReport(fresh);
    std::cout << coverageReport(coverage);
    if (opt.verbose && !baselined.empty()) {
        std::cerr << "baselined findings (" << baselined.size()
                  << "):\n"
                  << textReport(baselined);
    }

    if (!opt.sarif_path.empty()) {
        std::ofstream out(opt.sarif_path);
        if (!out) {
            std::cerr << "error: cannot write SARIF "
                      << opt.sarif_path << "\n";
            return 2;
        }
        out << sarifReport(fresh);
    }

    std::size_t gating = 0;
    for (const Finding &f : fresh)
        if (f.severity == Severity::Error)
            ++gating;
    if (gating > 0) {
        std::cerr << gating << " finding" << (gating == 1 ? "" : "s")
                  << " (see above); waive with `// archytas-analyzer: "
                     "allow(<rule>) -- <justification>` or baseline "
                     "architectural debt\n";
        return 1;
    }
    if (opt.verbose)
        std::cerr << "clean\n";
    return 0;
}
