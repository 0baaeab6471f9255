/* OptiWISE embedded dashboard: hash-routed SPA over the serve/cluster
 * JSON APIs. No frameworks, no build step — this file is embedded in
 * the binary and must run from file-server semantics alone. */
"use strict";

const view = document.getElementById("view");
let eventSource = null; // active SSE subscription, closed on route change
let pollTimer = null; // status-poll fallback when SSE is unavailable

function esc(s) {
  return String(s).replace(/[&<>"']/g, c => ({
    "&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;", "'": "&#39;",
  }[c]));
}

function fmtInt(n) {
  return (n === undefined || n === null) ? "0" : Number(n).toLocaleString("en-US");
}

function fmtCPI(x) {
  return (x === undefined || x === null || !isFinite(x)) ? "-" : Number(x).toFixed(3);
}

function fmtDur(sec) {
  if (sec < 90) return sec.toFixed(0) + "s";
  if (sec < 5400) return (sec / 60).toFixed(1) + "m";
  return (sec / 3600).toFixed(1) + "h";
}

async function getJSON(url) {
  const r = await fetch(url);
  const body = await r.json().catch(() => ({}));
  if (!r.ok) throw new Error(body.error || (url + ": HTTP " + r.status));
  return body;
}

function stateBadge(st) {
  const cls = { done: "done", failed: "failed", canceled: "failed", running: "running" }[st.state] || "";
  let out = `<span class="badge ${cls}">${esc(st.state)}</span>`;
  if (st.degraded) out += ` <span class="badge degraded">degraded</span>`;
  if (st.cached) out += ` <span class="badge">cached</span>`;
  if (st.coalesced) out += ` <span class="badge">coalesced</span>`;
  if (st.peer_fetched) out += ` <span class="badge">peer-fetched</span>`;
  return out;
}

function closeES() {
  if (eventSource) { eventSource.close(); eventSource = null; }
  if (pollTimer) { clearInterval(pollTimer); pollTimer = null; }
}

/* ---------- jobs list ---------- */

async function renderJobs() {
  let jobs;
  try { jobs = (await getJSON("/api/v1/jobs")).jobs || []; }
  catch (e) { view.innerHTML = `<p class="err">${esc(e.message)}</p>`; return; }
  // Lineage regression badges: one stats probe answers how many
  // regressions the node has seen; per-lineage diffs load on the job
  // page itself.
  let rows = jobs.map(j => `
    <tr class="row">
      <td><a href="#/jobs/${esc(j.id)}">${esc(j.id.slice(0, 12))}</a></td>
      <td>${esc(j.module || "")}</td>
      <td>${stateBadge(j)}</td>
      <td>${j.lineage ? `<a href="#/jobs/${esc(j.id)}">${esc(j.lineage)}</a>` : ""}</td>
      <td class="num">${j.duration_ms != null ? fmtInt(j.duration_ms) + " ms" : ""}</td>
      <td class="srcloc">${esc(j.trace_id || "")}</td>
    </tr>`).join("");
  view.innerHTML = `
    <div class="panel"><h2>Jobs (newest first)</h2>
    <table>
      <tr><th>id</th><th>module</th><th>state</th><th>lineage</th><th class="num">duration</th><th>trace</th></tr>
      ${rows || `<tr><td colspan="6" class="muted">no jobs submitted yet</td></tr>`}
    </table></div>`;
}

/* ---------- job detail: drill-down ---------- */

function instRows(insts) {
  return (insts || []).map(i => `
    <tr class="row">
      <td>0x${Number(i.offset).toString(16)}</td>
      <td class="disasm">${esc(i.disasm)}${i.estimated ? ' <span class="badge estimated">~</span>' : ""}</td>
      <td class="srcloc">${i.file ? esc(i.file) + ":" + i.line : ""}</td>
      <td class="num">${fmtInt(i.exec_count)}</td>
      <td class="num">${fmtInt(i.cycles)}</td>
      <td class="num cpi">${fmtCPI(i.cpi)}</td>
    </tr>`).join("");
}

function blockDetails(b) {
  return `<details>
    <summary>block 0x${Number(b.start).toString(16)}–0x${Number(b.end).toString(16)}
      · exec ${fmtInt(b.exec_count)} · CPI <span class="cpi">${fmtCPI(b.cpi)}</span>
      · ${(100 * (b.time_frac || 0)).toFixed(1)}% time</summary>
    <table>
      <tr><th>offset</th><th>instruction</th><th>source</th><th class="num">exec</th><th class="num">cycles</th><th class="num">CPI</th></tr>
      ${instRows(b.instructions)}
    </table>
  </details>`;
}

function loopDetails(l) {
  const src = l.file ? ` · ${esc(l.file)}:${l.start_line}–${l.end_line}` : "";
  return `<details>
    <summary>loop #${l.id} @0x${Number(l.header_offset).toString(16)} depth ${l.depth}
      · ${fmtInt(l.iterations)} iter · CPI <span class="cpi">${fmtCPI(l.cpi)}</span>
      · ${(100 * (l.time_frac || 0)).toFixed(1)}% time${src}</summary>
    ${(l.blocks || []).map(blockDetails).join("")}
  </details>`;
}

function funcDetails(f, totalCycles) {
  const frac = totalCycles ? f.total_cycles / totalCycles : 0;
  return `<details>
    <summary><span class="bar" style="width:${(120 * frac).toFixed(0)}px"></span>
      ${esc(f.name)}${f.estimated ? ' <span class="badge estimated">~</span>' : ""}
      · CPI <span class="cpi">${fmtCPI(f.cpi)}</span>
      · ${(100 * (f.time_frac || 0)).toFixed(1)}% time
      · ${fmtInt(f.self_insts)} insts</summary>
    ${(f.loops || []).map(loopDetails).join("")}
    ${(f.blocks || []).map(blockDetails).join("")}
  </details>`;
}

function phaseChart(dd) {
  const ivs = dd.intervals || [];
  if (!ivs.length) return "";
  const W = 1100, H = 110, n = ivs.length, bw = Math.max(1, W / n);
  let maxIPC = 0;
  for (const iv of ivs) maxIPC = Math.max(maxIPC, iv.ipc || 0);
  if (maxIPC <= 0) maxIPC = 1;
  const bars = ivs.map((iv, i) => {
    const h = Math.max(1, (iv.ipc / maxIPC) * (H - 10));
    return `<rect x="${(i * bw).toFixed(1)}" y="${(H - h).toFixed(1)}" width="${Math.max(bw - 0.5, 0.5).toFixed(1)}" height="${h.toFixed(1)}" fill="#5ab0f7"><title>window @${iv.start}: IPC ${(iv.ipc || 0).toFixed(2)}, dominant stall ${esc(iv.stalls && iv.stalls.dominant || "")}</title></rect>`;
  }).join("");
  const phases = (dd.phases || []).map(p => `
    <tr class="row"><td>${esc(p.dominant)}</td>
    <td class="num">${fmtInt(p.start_cycle)}–${fmtInt(p.end_cycle)}</td>
    <td class="num">${fmtInt(p.cycles)}</td><td class="num">${fmtInt(p.insts)}</td>
    <td class="num">${(p.ipc || 0).toFixed(2)}</td></tr>`).join("");
  return `<div class="panel"><h2>Telemetry windows (IPC, window=${fmtInt(dd.interval_window)})</h2>
    <svg class="chart" viewBox="0 0 ${W} ${H}" preserveAspectRatio="none">${bars}</svg>
    <table><tr><th>dominant stall</th><th class="num">cycle range</th><th class="num">cycles</th><th class="num">insts</th><th class="num">IPC</th></tr>${phases}</table>
    </div>`;
}

async function renderJob(id) {
  view.innerHTML = `<div class="panel"><h2>Job ${esc(id.slice(0, 12))}</h2><div id="jobstatus" class="muted">loading…</div></div><div id="jobbody"></div>`;
  const statusEl = document.getElementById("jobstatus");
  const bodyEl = document.getElementById("jobbody");

  const showStatus = st => {
    statusEl.innerHTML = `${stateBadge(st)} · module ${esc(st.module || "")}
      · machine ${esc(st.machine || "")} · retries ${st.retries || 0}
      ${st.error ? `<div class="err">${esc(st.error)}</div>` : ""}
      <div class="srcloc">trace ${esc(st.trace_id || "")}
      · <a href="/api/v1/jobs/${esc(id)}/trace">stitched trace JSON</a>
      · <a href="/api/v1/jobs/${esc(id)}/report?kind=full">report</a></div>`;
  };

  const loadDone = async st => {
    if (st.state === "failed" || st.state === "canceled") {
      let dumps = [];
      try { dumps = (await getJSON("/debug/flightrecorder")).dumps || []; } catch (e) { /* no recorder */ }
      const linked = dumps.filter(d => !st.trace_id || !d.trace_id || d.trace_id === st.trace_id);
      bodyEl.innerHTML = `<div class="panel"><h2>Flight-recorder dumps</h2>
        ${linked.length ? `<table><tr><th>id</th><th>taken</th><th>trigger</th><th class="num">records</th></tr>` +
          linked.map(d => `<tr class="row"><td><a href="/debug/flightrecorder/${d.id}">#${d.id}</a></td>
            <td>${esc(d.taken_at)}</td><td>${esc(d.reason)}</td><td class="num">${fmtInt(d.records)}</td></tr>`).join("") + "</table>"
          : `<p class="muted">no retained dumps reference this job</p>`}</div>`;
      return;
    }
    if (st.state !== "done") return;
    let dd;
    try { dd = await getJSON(`/api/v1/jobs/${encodeURIComponent(id)}/drilldown`); }
    catch (e) { bodyEl.innerHTML = `<p class="err">${esc(e.message)}</p>`; return; }
    const notes = [dd.degraded_note, dd.tiered_note].filter(Boolean)
      .map(n => `<p class="badge degraded">${esc(n)}</p>`).join("");
    bodyEl.innerHTML = `
      <div class="panel"><h2>Result</h2>
        ${notes}
        <p>${fmtInt(dd.total_cycles)} cycles · ${fmtInt(dd.total_insts)} instructions
          · IPC ${(dd.ipc || 0).toFixed(3)} · CPI <span class="cpi">${fmtCPI(dd.cpi)}</span></p>
      </div>
      ${phaseChart(dd)}
      <div class="panel"><h2>Drill-down (function → loop → block → instruction)</h2>
        ${(dd.functions || []).map(f => funcDetails(f, dd.total_cycles)).join("") || '<p class="muted">no functions</p>'}
      </div>`;
  };

  try {
    const st = await getJSON(`/api/v1/jobs/${encodeURIComponent(id)}`);
    showStatus(st);
    if (st.state === "done" || st.state === "failed" || st.state === "canceled") {
      await loadDone(st);
      return;
    }
    // Live job: subscribe to SSE pushes instead of polling.
    eventSource = new EventSource(`/api/v1/jobs/${encodeURIComponent(id)}/events`);
    eventSource.addEventListener("status", ev => showStatus(JSON.parse(ev.data)));
    eventSource.addEventListener("windows", ev => {
      const snap = JSON.parse(ev.data);
      bodyEl.innerHTML = `<div class="panel"><h2>Streamed windows (live)</h2>
        <p>${fmtInt(snap.cycles)} cycles · ${fmtInt(snap.instructions)} instructions
          · IPC ${(snap.ipc || 0).toFixed(3)}
          · ${(snap.sample_windows || []).length} sample windows
          · ${(snap.edge_windows || []).length} edge windows</p></div>`;
    });
    eventSource.addEventListener("done", async ev => {
      const st = JSON.parse(ev.data);
      closeES();
      showStatus(st);
      await loadDone(st);
    });
    // SSE is node-local; when this frontend is not the job's owner the
    // stream 404s, so fall back to polling the proxied status.
    eventSource.onerror = () => {
      closeES();
      const poll = setInterval(async () => {
        try {
          const st = await getJSON(`/api/v1/jobs/${encodeURIComponent(id)}`);
          showStatus(st);
          if (st.state === "done" || st.state === "failed" || st.state === "canceled") {
            clearInterval(poll);
            await loadDone(st);
          }
        } catch (e) {
          clearInterval(poll);
          statusEl.innerHTML = `<p class="err">${esc(e.message)}</p>`;
        }
      }, 2000);
      pollTimer = poll;
    };
  } catch (e) {
    statusEl.innerHTML = `<p class="err">${esc(e.message)}</p>`;
  }
}

/* ---------- cluster view ---------- */

function counterOf(snap, name) {
  return (snap && snap.counters && snap.counters[name]) || 0;
}
function gaugeOf(snap, name) {
  return (snap && snap.gauges && snap.gauges[name]) || 0;
}

async function renderCluster() {
  let stats = null, fed = null;
  try { stats = await getJSON("/api/v1/stats"); } catch (e) { /* keep nulls */ }
  try { fed = await getJSON("/cluster/v1/metrics?format=json"); } catch (e) { /* single node */ }

  let ringHTML = "";
  if (stats && stats.cluster) {
    const c = stats.cluster;
    ringHTML = `<div class="panel"><h2>Ring</h2>
      <p>self ${esc(c.self)} · ring size ${c.ring_size}
      · live ${c.peers_live} · suspect ${c.peers_suspect} · dead ${c.peers_dead}</p>
      <p class="muted">forwarded ${fmtInt(c.forwarded)} (failovers ${fmtInt(c.forward_failovers)})
      · peer-fetch hits ${fmtInt(c.peer_fetch_hits)} / misses ${fmtInt(c.peer_fetch_misses)}
      · served to peers ${fmtInt(c.peer_results_served)}
      · replications ${fmtInt(c.replications)}
      · anti-entropy repairs ${fmtInt(c.antientropy_repairs)}</p></div>`;
  }

  let nodesHTML = "";
  if (fed && fed.nodes) {
    const rows = fed.nodes.map(n => {
      const s = n.snapshot || {};
      return `<tr class="row">
        <td>${esc(n.node)}${n.stale ? ' <span class="badge stale">stale</span>' : ""}</td>
        <td class="num">${fmtInt(gaugeOf(s, "optiwise_serve_queue_depth"))}</td>
        <td class="num">${fmtInt(gaugeOf(s, "optiwise_serve_inflight_jobs"))}</td>
        <td class="num">${fmtInt(counterOf(s, "optiwise_serve_jobs_completed_total"))}</td>
        <td class="num">${fmtInt(counterOf(s, "optiwise_serve_cache_hits_total"))}</td>
        <td class="num">${fmtInt(counterOf(s, "optiwise_cluster_peer_fetch_hits_total"))}</td>
        <td class="num">${fmtInt(counterOf(s, "optiwise_cluster_replications_total"))}</td>
        <td class="num">${s.uptime_seconds ? fmtDur(s.uptime_seconds) : "-"}</td>
      </tr>`;
    }).join("");
    nodesHTML = `<div class="panel"><h2>Nodes (federated)</h2>
      <table><tr><th>node</th><th class="num">queue</th><th class="num">inflight</th>
      <th class="num">completed</th><th class="num">cache hits</th>
      <th class="num">peer fetches</th><th class="num">replications</th><th class="num">uptime</th></tr>
      ${rows}</table>
      <p class="muted"><a href="/cluster/v1/metrics">Prometheus exposition</a></p></div>`;
  } else {
    nodesHTML = `<div class="panel"><h2>Nodes</h2>
      <p class="muted">federated metrics unavailable (single-node server, or the cluster layer is not running)</p></div>`;
  }

  view.innerHTML = (ringHTML + nodesHTML) ||
    `<p class="err">stats unavailable</p>`;

  // Live refresh: the stats SSE channel repaints the ring panel.
  eventSource = new EventSource("/api/v1/stats/events");
  let last = 0;
  eventSource.addEventListener("stats", () => {
    const now = Date.now();
    if (now - last > 4000 && location.hash.startsWith("#/cluster")) {
      last = now;
      closeES();
      renderCluster();
    }
  });
}

/* ---------- flight recorder ---------- */

async function renderFlight() {
  let dumps;
  try { dumps = (await getJSON("/debug/flightrecorder")).dumps || []; }
  catch (e) { view.innerHTML = `<p class="err">${esc(e.message)}</p>`; return; }
  const rows = dumps.map(d => `<tr class="row">
    <td><a href="/debug/flightrecorder/${d.id}">#${d.id}</a></td>
    <td>${esc(d.taken_at)}</td><td>${esc(d.reason)}</td>
    <td class="srcloc">${esc(d.trace_id || "")}</td>
    <td class="num">${fmtInt(d.records)}</td></tr>`).join("");
  view.innerHTML = `<div class="panel"><h2>Retained flight dumps (newest first)</h2>
    <table><tr><th>id</th><th>taken</th><th>trigger</th><th>trace</th><th class="num">records</th></tr>
    ${rows || `<tr><td colspan="5" class="muted">no dumps retained — POST /debug/flightrecorder/dump takes one</td></tr>`}
    </table></div>`;
}

/* ---------- header + routing ---------- */

async function renderHeader() {
  try {
    const st = await getJSON("/api/v1/stats");
    const b = st.build || {};
    document.getElementById("buildinfo").textContent =
      `${b.version || "dev"} · ${b.go_version || ""} · ${(b.commit || "").slice(0, 12)} · up ${fmtDur(st.uptime_seconds || 0)}`;
  } catch (e) { /* header is decorative */ }
}

function route() {
  closeES();
  const hash = location.hash || "#/jobs";
  for (const id of ["nav-jobs", "nav-cluster", "nav-flight"]) {
    document.getElementById(id).classList.remove("active");
  }
  const m = hash.match(/^#\/jobs\/(.+)$/);
  if (m) {
    document.getElementById("nav-jobs").classList.add("active");
    renderJob(decodeURIComponent(m[1]));
  } else if (hash.startsWith("#/cluster")) {
    document.getElementById("nav-cluster").classList.add("active");
    renderCluster();
  } else if (hash.startsWith("#/flight")) {
    document.getElementById("nav-flight").classList.add("active");
    renderFlight();
  } else {
    document.getElementById("nav-jobs").classList.add("active");
    renderJobs();
  }
}

window.addEventListener("hashchange", route);
renderHeader();
route();
