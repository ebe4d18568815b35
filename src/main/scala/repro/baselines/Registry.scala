package repro.baselines

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.{Hope, HopePlus}

/** All 16 evaluated methods (13 competitors + HOPE + 2 HOPE+ variants) in the
  * order of the paper's Tables 3–5, with their complexity strings (Table 3).
  */
object Registry {

  object HopeMethod extends Baseline {
    val name = "HOPE"
    def cluster(spark: SparkSession, edges: DataFrame, k: Int, seed: Long): DataFrame =
      Hope.run(edges, k, Hope.Params(seed = seed))
  }

  object HopePlusFnem extends Baseline {
    val name = "HOPE+ (FNEM)"
    def cluster(spark: SparkSession, edges: DataFrame, k: Int, seed: Long): DataFrame =
      HopePlus.run(edges, k, HopePlus.Fnem, Hope.Params(seed = seed))
  }

  object HopePlusSnem extends Baseline {
    val name = "HOPE+ (SNEM)"
    def cluster(spark: SparkSession, edges: DataFrame, k: Int, seed: Long): DataFrame =
      HopePlus.run(edges, k, HopePlus.Snem, Hope.Params(seed = seed))
  }

  /** (method, paper Table 3 complexity) in table order. */
  val withComplexity: Seq[(Baseline, String)] = Seq(
    LeadingEigenvectorBaseline            -> "O((|U|+|V|)^2 + |E|)",
    GirvanNewmanBaseline                  -> "O(|U|·|E|^2)",
    SpectralBaselines.SC                  -> "O(k·|U|^2)",
    RandomWalkEmb.NRP                     -> "O(k·(|E|+k·|U|)·log|U|)",
    RandomWalkEmb.PPR                     -> "O(|E|·(|U|+|V|) + k·|U|·|V|)",
    DataClustering.KMeansBaseline         -> "O(k·|U|·|V|)",
    DataClustering.KMedoidsBaseline       -> "O(k·|U|^2·|V|)",
    DataClustering.BirchBaseline          -> "O(|V|·|U|·log|U|)",
    NmfBaseline                           -> "O((|E|+|U|+|V|)·k)",
    SpectralBaselines.SBC                 -> "O((|E|+|U|·k+|V|·k)·k)",
    SpectralBaselines.SCC                 -> "O((|E|+|U|·k+|V|·k)·log k)",
    BiSbm.KL                              -> "O((|U|+|V|)·k^2)",
    BiSbm.MCMC                            -> "O((|U|+|V|)·k + |E|·log^2(|U|+|V|))",
    HopeMethod                            -> "O((|E|+|U|·k)·β)",
    HopePlusFnem                          -> "O(|E|·β + |U|·β^2 + |U|·k^2)",
    HopePlusSnem                          -> "O(|E|·β + |U|·β^2 + |U|·k)",
  )

  val all: Seq[Baseline] = withComplexity.map(_._1)
  val competitors: Seq[Baseline] = all.take(13)
  val ours: Seq[Baseline] = all.takeRight(3)

  def byName(name: String): Baseline =
    all.find(_.name.equalsIgnoreCase(name))
      .getOrElse(sys.error(s"unknown method '$name'; known: ${all.map(_.name).mkString(", ")}"))
}
