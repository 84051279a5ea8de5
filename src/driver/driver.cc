#include "driver.hh"

#include <algorithm>
#include <exception>
#include <memory>
#include <mutex>
#include <sstream>

#include "common/thread_pool.hh"
#include "driver/dataset_cache.hh"
#include "graphr/engine/plan_cache.hh"

namespace graphr::driver
{

namespace
{

std::vector<std::string>
expandNames(const std::vector<std::string> &names,
            const std::vector<std::string> &registry,
            const std::string &what)
{
    std::vector<std::string> out;
    for (const std::string &name : names) {
        if (name == "all") {
            for (const std::string &r : registry) {
                if (std::find(out.begin(), out.end(), r) == out.end())
                    out.push_back(r);
            }
            continue;
        }
        if (std::find(registry.begin(), registry.end(), name) ==
            registry.end()) {
            std::string msg =
                "unknown " + what + " '" + name + "' (known:";
            for (const std::string &r : registry)
                msg += " " + r;
            msg += ")";
            throw DriverError(msg);
        }
        if (std::find(out.begin(), out.end(), name) == out.end())
            out.push_back(name);
    }
    if (out.empty())
        throw DriverError("no " + what + " selected");
    return out;
}

/**
 * One progress line, built off-stream and written in a single
 * mutex-guarded call so concurrent workers never interleave
 * mid-line. Byte-identical to the serial "running ... ..." + endl.
 */
void
announceRun(std::ostream *progress, std::mutex &progress_mutex,
            const std::string &workload, const std::string &backend,
            const std::string &dataset)
{
    if (progress == nullptr)
        return;
    std::ostringstream line;
    line << "running " << workload << " x " << backend << " x "
         << dataset << " ...\n";
    const std::lock_guard<std::mutex> lock(progress_mutex);
    *progress << line.str() << std::flush;
}

/**
 * Per-sweep dataset memo: each distinct dataset spec is looked up by
 * exactly one worker (std::call_once); everyone else blocks on that
 * slot. The slot holds its dataset for the whole sweep, so a sweep
 * over more datasets than the process-wide cache keeps still resolves
 * each one once. A resolution error is captured and rethrown to every
 * requester.
 */
struct DatasetSlot
{
    std::once_flag once;
    std::shared_ptr<const ResolvedDataset> value;
    std::exception_ptr error;
};

/** The sweep cross product, dataset-major (the serial loop order). */
struct Combo
{
    std::size_t dataset = 0;
    std::size_t workload = 0;
    std::size_t backend = 0;
};

std::vector<RunResult>
runSweepParallel(const SweepSpec &spec,
                 const std::vector<std::string> &workload_names,
                 const std::vector<Workload> &workloads,
                 const std::vector<std::string> &backend_names,
                 unsigned jobs, std::ostream *progress)
{
    std::vector<Combo> combos;
    combos.reserve(spec.datasets.size() * workloads.size() *
                   backend_names.size());
    for (std::size_t d = 0; d < spec.datasets.size(); ++d)
        for (std::size_t w = 0; w < workloads.size(); ++w)
            for (std::size_t b = 0; b < backend_names.size(); ++b)
                combos.push_back(Combo{d, w, b});

    std::vector<DatasetSlot> slots(spec.datasets.size());
    const auto ensureDataset =
        [&spec, &slots](std::size_t d)
        -> std::shared_ptr<const ResolvedDataset> {
        DatasetSlot &slot = slots[d];
        std::call_once(slot.once, [&spec, &slot, d] {
            try {
                slot.value = sharedDataset(spec.datasets[d], spec.scale,
                                           spec.seed);
            } catch (...) {
                slot.error = std::current_exception();
            }
        });
        if (slot.error)
            std::rethrow_exception(slot.error);
        return slot.value;
    };

    // Each worker writes only its own pre-assigned result slot, so
    // the merged vector comes out in spec order regardless of which
    // worker finishes first — the JSON/table output is byte-identical
    // to the serial path.
    std::vector<RunResult> results(combos.size());
    std::vector<std::exception_ptr> errors(combos.size());
    std::mutex progress_mutex;
    {
        ThreadPool pool(static_cast<unsigned>(
            std::min<std::size_t>(jobs, combos.size())));
        for (std::size_t i = 0; i < combos.size(); ++i) {
            pool.submit([&, i] {
                const Combo &combo = combos[i];
                try {
                    const std::shared_ptr<const ResolvedDataset>
                        dataset = ensureDataset(combo.dataset);
                    announceRun(progress, progress_mutex,
                                workload_names[combo.workload],
                                backend_names[combo.backend],
                                dataset->name);
                    // A fresh backend per run: instances are cheap
                    // (configuration only) and private state keeps
                    // runs schedule-independent.
                    const std::unique_ptr<Backend> backend =
                        makeBackend(backend_names[combo.backend],
                                    spec.backendOptions);
                    results[i] =
                        backend->run(workloads[combo.workload],
                                     *dataset);
                } catch (...) {
                    errors[i] = std::current_exception();
                }
            });
        }
        pool.wait();
    }

    // Deterministic error surface: the first failure in spec order
    // wins, matching what a serial sweep would have thrown.
    for (const std::exception_ptr &error : errors) {
        if (error)
            std::rethrow_exception(error);
    }
    return results;
}

} // namespace

std::vector<std::string>
expandWorkloadNames(const std::vector<std::string> &names)
{
    return expandNames(names, allWorkloadNames(), "workload");
}

std::vector<std::string>
expandBackendNames(const std::vector<std::string> &names)
{
    return expandNames(names, allBackendNames(), "backend");
}

void
installPlanStore(const StoreSpec &spec)
{
    // A request-scoped override (graphr_serve tenant namespaces) wins
    // over any spec-carried directory: the worker task has already
    // bound this thread to the tenant's store, and re-pointing the
    // process-wide store from under concurrent requests is exactly
    // the hazard the override exists to avoid.
    if (PlanCache::storeOverrideActive())
        return;
    if (spec.planDir.empty()) {
        PlanCache::instance().setStore(nullptr);
        return;
    }
    // Re-installing the directory that is already attached keeps the
    // resident store (and its cumulative statistics): a long-lived
    // graphr_serve process runs every request through here.
    const std::shared_ptr<PlanStore> current =
        PlanCache::instance().store();
    if (current && current->directory() == spec.planDir)
        return;
    try {
        PlanCache::instance().setStore(
            std::make_shared<PlanStore>(spec.planDir));
    } catch (const StoreError &err) {
        throw DriverError(std::string("cannot use --plan-dir: ") +
                          err.what());
    }
}

RunResult
runOne(const RunSpec &spec)
{
    installPlanStore(spec.store);
    const Workload workload = makeWorkload(spec.workload, spec.params);
    const std::shared_ptr<const ResolvedDataset> dataset =
        sharedDataset(spec.dataset, spec.scale, spec.seed);
    const std::unique_ptr<Backend> backend =
        makeBackend(spec.backend, spec.backendOptions);
    return backend->run(workload, *dataset);
}

std::vector<RunResult>
runSweep(const SweepSpec &spec, std::ostream *progress)
{
    if (spec.datasets.empty())
        throw DriverError("sweep needs at least one dataset");
    installPlanStore(spec.store);

    const std::vector<std::string> workload_names =
        expandWorkloadNames(spec.workloads);
    const std::vector<std::string> backend_names =
        expandBackendNames(spec.backends);

    // Validate every name and parse parameters before the first
    // (possibly expensive) run.
    std::vector<Workload> workloads;
    for (const std::string &name : workload_names)
        workloads.push_back(makeWorkload(name, spec.params));
    std::vector<std::unique_ptr<Backend>> backends;
    for (const std::string &name : backend_names)
        backends.push_back(makeBackend(name, spec.backendOptions));

    const unsigned jobs = ThreadPool::effectiveJobs(spec.jobs);
    if (jobs > 1) {
        return runSweepParallel(spec, workload_names, workloads,
                                backend_names, jobs, progress);
    }

    std::vector<RunResult> results;
    std::mutex progress_mutex;
    for (const std::string &dataset_spec : spec.datasets) {
        const std::shared_ptr<const ResolvedDataset> dataset =
            sharedDataset(dataset_spec, spec.scale, spec.seed);
        for (const Workload &workload : workloads) {
            for (const std::unique_ptr<Backend> &backend : backends) {
                announceRun(progress, progress_mutex, workload.name,
                            backend->name(), dataset->name);
                results.push_back(backend->run(workload, *dataset));
            }
        }
    }
    return results;
}

} // namespace graphr::driver
