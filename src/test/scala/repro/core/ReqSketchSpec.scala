package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.exp.{Harness, Workloads}

/** Streaming behaviour of the full REQ sketch (Algorithm 2 + Section 5). */
class ReqSketchSpec extends AnyFunSuite {

  test("empty sketch: n=0, rank 0 everywhere, quantile NaN") {
    val s = ReqSketch(0.1, 0.1, seed = 1)
    assert(s.n == 0 && s.itemsStored == 0)
    assert(s.rank(123.0) == 0)
    assert(s.quantile(0.5).isNaN)
  }

  test("constructor validates eps and delta") {
    intercept[IllegalArgumentException](ReqSketch(eps = 0.0))
    intercept[IllegalArgumentException](ReqSketch(eps = 1.5))
    intercept[IllegalArgumentException](ReqSketch(delta = 0.0))
    intercept[IllegalArgumentException](ReqSketch(delta = 0.9))
  }

  test("small streams are stored exactly (no compaction below B)") {
    val s = ReqSketch(0.1, 0.1, seed = 2)
    val xs = Workloads.uniform(100, 5)
    s.updateAll(xs)
    assert(s.height == 0 && s.itemsStored == 100)
    val sorted = xs.sorted
    sorted.zipWithIndex.foreach { case (x, i) => assert(s.rank(x) == i + 1) }
  }

  for (n <- Seq(1, 2, 10, 63)) {
    test(s"exact ranks for every element at n=$n") {
      val s = ReqSketch(0.2, 0.2, seed = n)
      val xs = Workloads.uniform(n, n)
      s.updateAll(xs)
      val sorted = xs.sorted
      sorted.zipWithIndex.foreach { case (x, i) => assert(s.rank(x) == i + 1) }
    }
  }

  test("rank is monotone non-decreasing in the query") {
    val s = ReqSketch(0.05, 0.1, seed = 3)
    s.updateAll(Workloads.uniform(50000, 7))
    val qs = (0 to 100).map(_ / 100.0)
    val rs = qs.map(s.rank)
    assert(rs == rs.sorted)
  }

  test("rank of +inf equals totalWeight; rank below min is 0") {
    val s = ReqSketch(0.05, 0.1, seed = 4)
    s.updateAll(Workloads.uniform(30000, 9))
    assert(s.rank(Double.MaxValue) == s.totalWeight)
    assert(s.rank(-1.0) == 0)
  }

  test("totalWeight equals n before the first bound growth") {
    val s = ReqSketch(0.05, 0.1, seed = 5)
    val n0 = s.nBound
    (1 to n0.toInt).foreach(i => s.update(i.toDouble))
    assert(s.totalWeight == s.n)
  }

  test("totalWeight stays within 2% of n across growths (unbiased drift)") {
    for (seed <- 1 to 5) {
      val s = ReqSketch(0.05, 0.1, seed = seed)
      s.updateAll(Workloads.uniform(300000, seed))
      assert(math.abs(s.totalWeight - s.n) <= 0.02 * s.n,
        s"weight=${s.totalWeight} n=${s.n} (seed=$seed)")
    }
  }

  test("nBound squares when exceeded and never lags n") {
    val s = ReqSketch(0.1, 0.1, seed = 6)
    val n0 = s.nBound
    s.updateAll(Workloads.uniform((n0 + 10).toInt, 3))
    assert(s.nBound >= n0.toLong * n0 && s.nBound >= s.n)
  }

  test("parameters are recomputed on growth (k shrinks, B grows)") {
    val s = ReqSketch(0.05, 0.1, seed = 7)
    val (k0, b0) = (s.sectionSize, s.bufferCapacity)
    s.updateAll(Workloads.uniform(200000, 11))
    assert(s.sectionSize <= k0)
    assert(s.bufferCapacity >= b0)
  }

  test("height is bounded by log2(n/B) + 1 (Observation 12)") {
    val s = ReqSketch(0.05, 0.1, seed = 8)
    val n = 500000
    s.updateAll(Workloads.uniform(n, 13))
    val bound = math.ceil(math.log(n.toDouble / s.bufferCapacity) / math.log(2)).toInt + 1
    assert(s.height <= math.max(1, bound))
  }

  test("per-level sizes never exceed the buffer capacity after updates") {
    val s = ReqSketch(0.1, 0.1, seed = 9)
    s.updateAll(Workloads.uniform(100000, 15))
    s.levelSizes.foreach(sz => assert(sz <= s.bufferCapacity))
  }

  // Accuracy sweep: all orders × eps × distributions, fixed seeds. The
  // per-query guarantee is eps w.p. 1-delta; with a fixed seed we allow a
  // 1.5x cushion on the max over the whole rank grid.
  for {
    eps <- Seq(0.1, 0.05)
    order <- Workloads.orders
  } {
    test(s"relative error <= 1.5*eps on 100k uniform, order=$order, eps=$eps") {
      val data = Workloads.ordered(Workloads.uniform(100000, 21), order)
      val s = ReqSketch(eps, 0.1, Practical, seed = 31)
      s.updateAll(data)
      val p = Harness.errProfile(s.rank, data)
      assert(p.maxRel <= 1.5 * eps, f"maxRel=${p.maxRel}%.4f")
    }
  }

  for (profile <- Seq[ParamProfile](Theory, Practical, FixedK(32))) {
    test(s"relative error <= 1.5*eps with profile $profile on 80k items") {
      val eps = 0.1
      val data = Workloads.uniform(80000, 23)
      val s = ReqSketch(eps, 0.1, profile, seed = 33)
      s.updateAll(data)
      val p = Harness.errProfile(s.rank, data)
      assert(p.maxRel <= 1.5 * eps, f"profile=$profile maxRel=${p.maxRel}%.4f")
    }
  }

  test("duplicate-heavy input (zipf-like) keeps relative error") {
    val rng = new java.util.Random(41)
    val data = Array.fill(100000)(math.floor(1.0 / (rng.nextDouble() + 1e-4)))
    val s = ReqSketch(0.05, 0.1, seed = 43)
    s.updateAll(data)
    val p = Harness.errProfile(s.rank, data)
    assert(p.maxRel <= 0.075, f"maxRel=${p.maxRel}%.4f")
  }

  test("constant stream collapses to exact ranks") {
    val s = ReqSketch(0.1, 0.1, seed = 45)
    s.updateAll(Array.fill(50000)(42.0))
    assert(s.rank(41.9) == 0)
    assert(math.abs(s.rank(42.0) - 50000L) <= 0.02 * 50000)
  }

  test("quantile is consistent with rank (phi*n within relative error)") {
    val data = Workloads.uniform(100000, 47)
    val s = ReqSketch(0.05, 0.1, seed = 49)
    s.updateAll(data)
    val sorted = data.sorted
    for (phi <- Seq(0.01, 0.1, 0.5, 0.9, 0.99)) {
      val q = s.quantile(phi)
      val trueRank = ExactRank.ranksLocal(sorted.clone(), Array(q)).head
      val target = math.ceil(phi * data.length)
      assert(math.abs(trueRank - target) <= 0.1 * target + s.bufferCapacity / 2.0,
        s"phi=$phi trueRank=$trueRank target=$target")
    }
  }

  test("quantile rejects out-of-range phi") {
    val s = ReqSketch(0.1, 0.1, seed = 51)
    s.update(1.0)
    intercept[IllegalArgumentException](s.quantile(0.0))
    intercept[IllegalArgumentException](s.quantile(1.5))
  }

  test("coreset weights are powers of two summing to totalWeight") {
    val s = ReqSketch(0.1, 0.1, seed = 53)
    s.updateAll(Workloads.uniform(50000, 55))
    val cs = s.coreset
    assert(cs.map(_._2).sum == s.totalWeight)
    assert(cs.forall { case (_, w) => (w & (w - 1)) == 0 })
    assert(cs.map(_._1).toSeq == cs.map(_._1).sorted.toSeq)
  }

  test("space is sublinear: items << n at n=500k") {
    val s = ReqSketch(0.05, 0.1, seed = 57)
    s.updateAll(Workloads.uniform(500000, 59))
    assert(s.itemsStored < 500000 / 10, s"items=${s.itemsStored}")
  }

  test("deterministic given a fixed seed") {
    def build() = {
      val s = ReqSketch(0.05, 0.1, seed = 61)
      s.updateAll(Workloads.uniform(100000, 63)); s
    }
    val (a, b) = (build(), build())
    assert(a.itemsStored == b.itemsStored)
    assert(a.coreset.toSeq == b.coreset.toSeq)
  }

  test("different seeds give different internal states (coin flips differ)") {
    def build(seed: Long) = {
      val s = ReqSketch(0.05, 0.1, seed = seed)
      s.updateAll(Workloads.uniform(100000, 63)); s
    }
    assert(build(1).coreset.toSeq != build(2).coreset.toSeq)
  }

  test("ranks (batch) agrees with rank (single)") {
    val s = ReqSketch(0.1, 0.1, seed = 65)
    s.updateAll(Workloads.uniform(20000, 67))
    val qs = Array(0.1, 0.5, 0.9)
    assert(s.ranks(qs).toSeq == qs.map(s.rank).toSeq)
  }
  test("NaN is skipped: n, rank and quantile agree on the other items") {
    val rng = new java.util.Random(71)
    val data = Array.fill(100000)(if (rng.nextInt(10) == 0) Double.NaN else rng.nextDouble())
    val clean = data.filterNot(_.isNaN)
    val s = ReqSketch(0.05, 0.1, seed = 73)
    s.updateAll(data)
    assert(s.n == clean.length)
    assert(Harness.errProfile(s.rank, clean).maxRel <= 0.075)
    val q = s.quantile(0.95)
    assert(!q.isNaN && !q.isInfinite)
    val trueRank = ExactRank.ranksLocal(clean.clone(), Array(q)).head
    val target = math.ceil(0.95 * clean.length)
    assert(math.abs(trueRank - target) <= 0.1 * target + s.bufferCapacity / 2.0,
      s"trueRank=$trueRank target=$target")
  }

  test("±Inf are ordinary items for rank and quantile") {
    val small = ReqSketch(0.1, 0.1, seed = 75)
    small.updateAll(Array(Double.PositiveInfinity, -1.0, Double.NegativeInfinity, 0.0,
      Double.PositiveInfinity, 1.0))
    assert(small.n == 6)
    assert(small.rank(Double.NegativeInfinity) == 1)
    assert(small.rank(Double.MaxValue) == 4)
    assert(small.rank(Double.PositiveInfinity) == 6)
    assert(small.quantile(1.0 / 6) == Double.NegativeInfinity)
    assert(small.quantile(0.5) == 0.0)
    assert(small.quantile(1.0) == Double.PositiveInfinity)

    // 1% of each infinity in a stream long enough to compact
    val rng = new java.util.Random(77)
    val data = Array.fill(200000) {
      rng.nextInt(100) match {
        case 0 => Double.NegativeInfinity
        case 1 => Double.PositiveInfinity
        case _ => rng.nextDouble()
      }
    }
    val s = ReqSketch(0.05, 0.1, seed = 79)
    s.updateAll(data)
    assert(s.n == data.length)
    assert(Harness.errProfile(s.rank, data).maxRel <= 0.075)
    assert(s.rank(Double.PositiveInfinity) == s.totalWeight)
    assert(s.quantile(0.005) == Double.NegativeInfinity)
    assert(s.quantile(1.0) == Double.PositiveInfinity)
  }

  // ------------------------------------------------------------ golden state
  //
  // Sketch state pinned for fixed seeds: any change that does not change the
  // algorithm must leave every compaction coin, promoted item, level size and
  // schedule state as it was. Streams mix uniform doubles with heavy
  // duplicates, ±0.0 and ±Inf so that ties reach every compaction.

  private def goldenStream(n: Int, seed: Long): Array[Double] = {
    val r = new java.util.Random(seed)
    val xs = Array.fill(n) {
      r.nextInt(16) match {
        case 0 => -0.0
        case 1 => 0.0
        case 2 => Double.PositiveInfinity
        case 3 => Double.NegativeInfinity
        case 4 | 5 | 6 => math.floor(r.nextDouble() * 64)
        case _ => r.nextDouble()
      }
    }
    if (seed % 3 == 0) Workloads.ordered(xs, "reversed") else xs
  }

  /** SHA-256 of the sorted coreset's (raw bits, weight) pairs. */
  private def coresetDigest(s: ReqSketch): String =
    sha256(s.coreset.iterator.flatMap { case (x, w) =>
      Iterator(java.lang.Double.doubleToRawLongBits(x), w) })

  /** SHA-256 of `quantile` (raw bits) at φ = i/1024 and at extreme φ, then
    * of `rank` at signed zeros, infinities, NaN, values the streams repeat
    * and a grid over [0, 1).
    */
  private def queryDigest(s: ReqSketch): String = {
    val phis = (1 to 1024).map(_ / 1024.0) ++ Seq(1e-6, 0.001, 0.01, 0.99, 0.999)
    val ys = Seq(-0.0, 0.0, Double.NegativeInfinity, Double.PositiveInfinity, Double.NaN,
      0.5, 1.0, 63.0, -1.0, Double.MaxValue) ++ (0 until 200).map(_ / 200.0)
    sha256(phis.iterator.map(p => java.lang.Double.doubleToRawLongBits(s.quantile(p))) ++
      ys.iterator.map(s.rank))
  }

  private def sha256(values: Iterator[Long]): String = {
    val md = java.security.MessageDigest.getInstance("SHA-256")
    val bb = java.nio.ByteBuffer.allocate(8)
    values.foreach { v => bb.clear(); md.update(bb.putLong(v).array()) }
    md.digest().map(b => f"${b & 0xff}%02x").mkString
  }

  private def goldenState(s: ReqSketch): String =
    s"sizes=${s.levelSizes.mkString(",")} " +
      s"states=${(0 to s.height).map(s.levelState).mkString(",")} " +
      s"n=${s.n} bound=${s.nBound} sha256=${coresetDigest(s)}"

  private val goldenProfiles = Seq[(ParamProfile, Double)](
    Practical -> 0.01, Theory -> 0.05, FixedK(12) -> 0.01)

  private val golden: Map[String, String] = Map(
    "stream/Practical/seed=1" ->
      ("sizes=6153,5822,6068,6211,6129,6068,5735,2323" +
        " states=3175,1260,531,246,108,41,8,0" +
        " n=1048576 bound=30680521" +
        " sha256=99cf61d7289a00211fe4dc893e980fa15e18102b6614466b77c8acb9177b730c"),
    "merge64/Practical/seed=1" ->
      ("sizes=6068,6068,5904,6068,5740,5740,6200,2235" +
        " states=511,63,62,59,52,36,8,0" +
        " n=1048576 bound=30680521" +
        " sha256=1adbe9cfa045c299336dfa5520c9eecd2982d767c841b1712cbc079854139a9d"),
    "tree64/Practical/seed=1" ->
      ("sizes=5248,5904,6068,5740,6068,5904,6068,2242" +
        " states=32,6,5,4,3,2,1,0" +
        " n=1048576 bound=30680521" +
        " sha256=4ede0c95fd54a26a5e424e969185dd8f26cb8d67362d05653ead447995846dcc"),
    "stream/Practical/seed=2" ->
      ("sizes=6153,5822,6068,6212,6130,6068,5735,2325" +
        " states=3175,1260,531,246,108,41,8,0" +
        " n=1048576 bound=30680521" +
        " sha256=1f1218e91909bc5d7edcc0852e130f8a656dd928ca3af92bb96c1fd488ab5d1a"),
    "merge64/Practical/seed=2" ->
      ("sizes=6068,6068,5904,6068,5740,5740,6202,2231" +
        " states=511,63,62,59,52,36,8,0" +
        " n=1048576 bound=30680521" +
        " sha256=4c328899e8873728215465f56142a2c26f5174c6c2d8aa4a7972a5bc4ed320c5"),
    "tree64/Practical/seed=2" ->
      ("sizes=5248,5904,6068,5740,6068,5904,6068,2242" +
        " states=32,6,5,4,3,2,1,0" +
        " n=1048576 bound=30680521" +
        " sha256=563b722b2052d978bdc33e99fdce759630d879703b20a4bef764de23bb1c495a"),
    "stream/Practical/seed=3" ->
      ("sizes=6153,5822,6068,6211,6130,6068,5735,2327" +
        " states=3175,1260,531,246,108,41,8,0" +
        " n=1048576 bound=30680521" +
        " sha256=94bd52d522a3431fac90afc8f360cdadee739233ea2eefdba44f16f6bea3e730"),
    "merge64/Practical/seed=3" ->
      ("sizes=6068,6068,5904,6068,5740,5740,6200,2231" +
        " states=511,63,62,59,52,36,8,0" +
        " n=1048576 bound=30680521" +
        " sha256=ea1755a40b13389f6c5c98a0989f6e663f2e2708435d9394e1ebfc05f865812e"),
    "tree64/Practical/seed=3" ->
      ("sizes=5248,5904,6068,5740,6068,5904,6068,2241" +
        " states=32,6,5,4,3,2,1,0" +
        " n=1048576 bound=30680521" +
        " sha256=d75b585a82279c9f24ca1a92a3ebf8e7718f2f24f177f3993692684a206946fc"),
    "stream/Theory/seed=1" ->
      ("sizes=9762,9728,9216,9984,10128,9728,6708" +
        " states=2026,798,344,153,61,18,0" +
        " n=1048576 bound=78535044" +
        " sha256=0d83a630e27f86601ead05f208ca0fec100c7ed277a547e21af4e77368066f98"),
    "merge64/Theory/seed=1" ->
      ("sizes=9216,9984,9472,9984,9728,9984,6664" +
        " states=504,63,60,55,42,17,0" +
        " n=1048576 bound=78535044" +
        " sha256=817aded93f1668732810862d20ac2eba3b74c5695984090a2dd9f2499b21a786"),
    "tree64/Theory/seed=1" ->
      ("sizes=9984,9728,9472,9984,9728,9984,6660" +
        " states=13,6,4,3,2,1,0" +
        " n=1048576 bound=78535044" +
        " sha256=c04efd62ae8551289823d9aa188134a528280d9477828f8f797397b104573219"),
    "stream/Theory/seed=2" ->
      ("sizes=9762,9728,9216,9984,10128,9728,6707" +
        " states=2026,798,344,153,61,18,0" +
        " n=1048576 bound=78535044" +
        " sha256=08b71a77c6dd764c88cb8d7e01f174a21894cade0f097162de760447f0f70283"),
    "merge64/Theory/seed=2" ->
      ("sizes=9216,9984,9472,9984,9728,9984,6664" +
        " states=504,63,60,55,42,17,0" +
        " n=1048576 bound=78535044" +
        " sha256=01d92d36912b06de9880f061e5174b6cba9824a9b872294f19a5728cba5d2cd0"),
    "tree64/Theory/seed=2" ->
      ("sizes=9984,9728,9472,9984,9728,9984,6660" +
        " states=13,6,4,3,2,1,0" +
        " n=1048576 bound=78535044" +
        " sha256=103052e4da5871bef146b300b279c4cf3bb48d01feed86e75fe9fb48659927b1"),
    "stream/Theory/seed=3" ->
      ("sizes=9762,9728,9216,9984,10128,9728,6708" +
        " states=2026,798,344,153,61,18,0" +
        " n=1048576 bound=78535044" +
        " sha256=1e35fc7e4007129b823c073b6f697efcfaf9cdd7cc5fe8a02fee495410706e15"),
    "merge64/Theory/seed=3" ->
      ("sizes=9216,9984,9472,9984,9728,9984,6664" +
        " states=504,63,60,55,42,17,0" +
        " n=1048576 bound=78535044" +
        " sha256=56b30303a055231f7a4c82b158a5e38577ffc7d14bf41618c608a100017d1f72"),
    "tree64/Theory/seed=3" ->
      ("sizes=9984,9728,9472,9984,9728,9984,6660" +
        " states=13,6,4,3,2,1,0" +
        " n=1048576 bound=78535044" +
        " sha256=ef349b8393ccda0a7d97f14f23269395f948f39cbdf7210c43507deb1e57a034"),
    "stream/FixedK(12)/seed=1" ->
      ("sizes=516,522,516,511,504,516,516,516,525,505,511" +
        " states=43670,17434,7623,3598,1768,879,431,201,87,28,0" +
        " n=1048576 bound=16777216" +
        " sha256=c5c86f54183c8edc91f6ef16b80c1f6d14f64a1282b05c848550676cc32cabaf"),
    "merge64/FixedK(12)/seed=1" ->
      ("sizes=516,516,516,504,480,516,492,516,468,492,516,9" +
        " states=1023,2047,255,1022,120,63,60,57,48,28,1,0" +
        " n=1048576 bound=16777216" +
        " sha256=1f09e3663d59b48a43aa5cb4f236a034131c72a5da6b65244ed9525fcf52d2dd"),
    "tree64/FixedK(12)/seed=1" ->
      ("sizes=504,504,504,516,468,504,516,516,504,516,513" +
        " states=666,250,102,35,16,14,5,7,2,1,0" +
        " n=1048576 bound=16777216" +
        " sha256=5ebc599e5fb3eeb5872adf4934066101799cd98b6c3932da3bdd5b455c7717c3"),
    "stream/FixedK(12)/seed=2" ->
      ("sizes=516,522,516,511,503,504,480,516,508,516,507" +
        " states=43670,17434,7623,3598,1768,870,424,199,84,29,0" +
        " n=1048576 bound=16777216" +
        " sha256=9f8cd7d910f1ecc3de1bf085f68c1f0ce486ebe7cb4abe11185401a59733c63e"),
    "merge64/FixedK(12)/seed=2" ->
      ("sizes=516,516,516,504,480,516,492,480,516,524,512" +
        " states=1023,2047,255,1022,120,63,60,56,49,26,0" +
        " n=1048576 bound=16777216" +
        " sha256=79c964294d2375bcbe8ee89067ead26ae71c7473bb7af0e0cb27d54e26bb3a77"),
    "tree64/FixedK(12)/seed=2" ->
      ("sizes=504,504,504,516,456,504,516,516,504,516,513" +
        " states=666,250,102,35,32,6,13,3,2,1,0" +
        " n=1048576 bound=16777216" +
        " sha256=43d994fabe9d76cb33d365ed75a0b70a2e9469dfba1736a63a2d8f0d057ade73"),
    "stream/FixedK(12)/seed=3" ->
      ("sizes=516,522,516,512,492,516,504,480,516,506,521" +
        " states=43670,17434,7623,3598,1776,879,426,200,87,28,0" +
        " n=1048576 bound=16777216" +
        " sha256=f4a36ee50f32ceba9cc810b92d7f734bc8cde95d3ec4578b3b516236f8f6f103"),
    "merge64/FixedK(12)/seed=3" ->
      ("sizes=516,516,516,504,516,516,492,480,516,522,509" +
        " states=1023,2047,255,1022,119,63,60,56,49,26,0" +
        " n=1048576 bound=16777216" +
        " sha256=aee9771dfd7560c63045c7b630029e4c45c7e2d418ab0a0acbcfc46c54ad27da"),
    "tree64/FixedK(12)/seed=3" ->
      ("sizes=504,504,504,516,468,504,516,516,504,516,514" +
        " states=666,250,102,35,16,14,13,3,2,1,0" +
        " n=1048576 bound=16777216" +
        " sha256=b0e90e641bd4138add02dd7a7a963be0b91fd3b83825cb5c0f4b6a0965dd60d8")
  )

  private def goldenSketch(profile: ParamProfile, eps: Double, seed: Int, mode: String): ReqSketch = {
    val data = goldenStream(1 << 20, seed)
    mode match {
      case "stream" =>
        val s = ReqSketch(eps, 0.05, profile, seed = seed)
        s.updateAll(data)
        s
      case _ =>
        // merge64 folds decoded chunks left to right; tree64 merges live
        // chunks, pending tails and all, pairwise up a balanced tree.
        var chunks = data.grouped(data.length / 64).zipWithIndex.map { case (c, i) =>
          val chunk = ReqSketch(eps, 0.05, profile, seed = 100 * seed + i)
          chunk.updateAll(c)
          if (mode == "merge64") ReqSketch.fromBytes(ReqSketch.toBytes(chunk)) else chunk
        }.toVector
        if (mode == "merge64") chunks.reduce((a, b) => a.merge(b))
        else {
          while (chunks.size > 1) chunks = chunks.grouped(2).map(p => p(0).merge(p(1))).toVector
          chunks.head
        }
    }
  }

  /** `queryDigest` of each golden sketch. */
  private val goldenQueries: Map[String, String] = Map(
    "stream/Practical/seed=1" -> "e5fb09dce640de45f4c9ef4d2b99b4568f903cff415f0773093259b96a1ed845",
    "merge64/Practical/seed=1" -> "25f691b75a365bcbbefb73e0e9258b37084180f8866b563696800842c7a4939b",
    "tree64/Practical/seed=1" -> "12d1c26ece43db445b6660787bd4ff2fcc719b2348d99667f4ba2a703aecfbb8",
    "stream/Practical/seed=2" -> "68e743904f9951389d0b8b3c9f5b71c4dfdcc3418fd8b48791693f66cf8d285a",
    "merge64/Practical/seed=2" -> "fbd92adadb5216d2a195ce73bd42cfde36bcb46f4dcde3bb7064a46b7afa7c12",
    "tree64/Practical/seed=2" -> "8ab83005d0d53d3993dddf6f38a724dbd8de9b1e1ea5eabbfdeff7b1cfc30ace",
    "stream/Practical/seed=3" -> "e30dfc1dc361730eb17323aa70ad9256b7d5361ec86233d12f21d53cacb13f85",
    "merge64/Practical/seed=3" -> "0ff9a374f07ba47b702cd1d2c9cee585102d3ef12a95de47e223f0575f03f659",
    "tree64/Practical/seed=3" -> "02c7c9cbc13a1eec1a563be6a663a1dd0c3c7bc980b3552972e060e75a412356",
    "stream/Theory/seed=1" -> "0a40c39aae7bf441cc50523804f2d1accde115dd9bb2d7d6a8e0f75ed03ba9d4",
    "merge64/Theory/seed=1" -> "5f12d8a9579515cc6785cc2dafed5907a1c8ee5e25b104894eb4bbfba6b3cebf",
    "tree64/Theory/seed=1" -> "24af0b3c5a0eb78fe5e18f2e3209eb4c48e160843e6ae68ee966e022fd6637f6",
    "stream/Theory/seed=2" -> "554876cd27238c4cf903449e9bb718accb00ee13677b61343856980ed854a558",
    "merge64/Theory/seed=2" -> "4d2357ed1634d243c5ff3be9e60c3ced820ac10ca3fe1d70b8c98b59d5c3ff05",
    "tree64/Theory/seed=2" -> "24768225e904f4954610bee412146022994c541cd0fb5693a7f8bdf8d050f87a",
    "stream/Theory/seed=3" -> "41e41c3a226aeff24655cb0951a1a6d21b689ff8430444d68f66db0ff16b3954",
    "merge64/Theory/seed=3" -> "d4ac05b128368f50b6cc4da18fb1ad4ac15dff67f18c2cf1f0b1987059eac70c",
    "tree64/Theory/seed=3" -> "fc3ef67580e28942c2b9aab2702f1859feaaddc6d3b20af891962d3943895853",
    "stream/FixedK(12)/seed=1" -> "53ceb161ce4e1d6369009f995351d17abd4c15f311f4d20a843e8843ca45d5dc",
    "merge64/FixedK(12)/seed=1" -> "044cbcce2dfcfa54c3d26e7dbaacb3faa139f2017680a9eeab680035f83afbcc",
    "tree64/FixedK(12)/seed=1" -> "8aeb19b59934dd0617dbc0c44ed694bb1f0a107e7c3e5b9428f5d660bd1fe7f3",
    "stream/FixedK(12)/seed=2" -> "284049dd00fbb9fea8807a606f743a93f96fd96b9c06e09bb0976695a60ac559",
    "merge64/FixedK(12)/seed=2" -> "8e144b628523eee8e56650d1134489108cb78f097f6b36a58a9cb7b13e744311",
    "tree64/FixedK(12)/seed=2" -> "4a21f59c41f14aef9e4bafe562094e9d1dbb2432b4ea7ad2e35cf27d35ac1361",
    "stream/FixedK(12)/seed=3" -> "4b21025f818e27055cc1e75763cc2a079cd6fb168d9e1edc8b04a9121bf8719a",
    "merge64/FixedK(12)/seed=3" -> "ed41c39f1c4412a7dee09bfe005763e71453c36d9e2383de7a748b4a88fd9856",
    "tree64/FixedK(12)/seed=3" -> "58138f341a89f841dd290f9eef3a373eb2e097b1662f3bd9abee03c5ae2a1260"
  )

  for ((profile, eps) <- goldenProfiles; seed <- 1 to 3; mode <- Seq("stream", "merge64", "tree64")) {
    val name = s"$mode/$profile/seed=$seed"
    test(s"golden sketch state: $name") {
      val actual = goldenState(goldenSketch(profile, eps, seed, mode))
      assert(golden.get(name).contains(actual), s"\"$name\" -> \"$actual\",")
    }
    test(s"golden query answers: $name") {
      val s = goldenSketch(profile, eps, seed, mode)
      assert(s.rank(-0.0) == s.rank(0.0))
      val actual = queryDigest(s)
      assert(goldenQueries.get(name).contains(actual), s"\"$name\" -> \"$actual\",")
    }
  }
}
